// Command relquerylint runs relquery's custom static-analysis suite
// over the module.
//
// Usage:
//
//	relquerylint [-list] [-format text|sarif] [packages]
//
// Packages default to ./... relative to the current directory. With
// -format=sarif the report is a SARIF 2.1.0 log on stdout for upload to
// code-scanning UIs.
//
// Exit status: 0 when the tree is clean, 1 on any finding, 2 on a loading
// or internal error — the same convention as go vet, so CI can gate on it
// directly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"relquery/internal/analysis"
	"relquery/internal/analysis/framework"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	flags := flag.NewFlagSet("relquerylint", flag.ContinueOnError)
	list := flags.Bool("list", false, "list the analyzers in the suite and exit")
	format := flags.String("format", "text", "report format: text or sarif")
	flags.Usage = func() {
		fmt.Fprintln(flags.Output(), "usage: relquerylint [-list] [-format text|sarif] [packages]")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "relquerylint: unknown -format %q (want text or sarif)\n", *format)
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "relquerylint:", err)
		return 2
	}
	root, err := framework.ModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relquerylint:", err)
		return 2
	}
	prog, err := framework.LoadPackages(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relquerylint:", err)
		return 2
	}
	diags, err := prog.Run(analyzers...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relquerylint:", err)
		return 2
	}

	if *format == "sarif" {
		if err := framework.WriteSARIF(stdout, analyzers, diags, root); err != nil {
			fmt.Fprintln(os.Stderr, "relquerylint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
