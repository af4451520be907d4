package obs

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkRegistryObserveTraceRing measures the steady-state cost of
// publishing one traced evaluation into a full trace ring — the path
// relqueryd drives once per query. The ring is a circular buffer whose
// slots keep copies in arenas they reuse, so the cost must be flat across
// capacities and allocate nothing: for a one-span tree, and for an
// 18-span tree the size of a φ_G gadget query's (a join over 17
// arguments), where a ring that allocated per copied span would show.
func BenchmarkRegistryObserveTraceRing(b *testing.B) {
	gadget := &Span{Op: OpJoin, OutputRows: 64, MaxIntermediate: 4096, AGMBound: 8192, InputRows: make([]int, 17)}
	for i := range gadget.InputRows {
		gadget.InputRows[i] = 8
		gadget.Children = append(gadget.Children, &Span{Op: OpProject, Label: fmt.Sprint("pi[A", i, "](T)"), OutputRows: 8})
	}
	for _, tc := range []struct {
		name string
		root *Span
	}{
		{"", &Span{Op: OpJoin, OutputRows: 8, MaxIntermediate: 16, AGMBound: 32}},
		{"spans18", gadget},
	} {
		for _, ringCap := range []int{32, 512, 4096} {
			// "cap32", not "cap-32": benchdiff strips a trailing -N as the Go
			// GOMAXPROCS suffix, which would collapse the capacities into one key.
			b.Run(fmt.Sprintf("%scap%d", tc.name, ringCap), func(b *testing.B) {
				reg := NewRegistry()
				reg.SetTraceCap(ringCap)
				tr := &Trace{
					Roots:   []*Span{tc.root},
					Metrics: MetricsSnapshot{Joins: 1, MaxIntermediate: int64(tc.root.MaxIntermediate)},
				}
				// Fill the ring so every timed Observe exercises the full-ring
				// replacement path, not the growth path.
				for i := 0; i < ringCap; i++ {
					reg.Observe(tr, time.Microsecond)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					reg.Observe(tr, time.Microsecond)
				}
			})
		}
	}
}
