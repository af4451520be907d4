// Fixture for nilrecv: a package modeling the observability layer's
// nil-receiver no-op contract types.
package obs

type Collector struct {
	spans []int
	on    bool
}

// Guarded is the contract's canonical shape.
func (c *Collector) Guarded() int {
	if c == nil {
		return 0
	}
	return len(c.spans)
}

// Unguarded dereferences straight away.
func (c *Collector) Unguarded() int {
	return len(c.spans) // want `\(\*Collector\)\.Unguarded dereferences the receiver before the nil guard`
}

// ChainGuard: later || operands may dereference freely.
func (c *Collector) ChainGuard() int {
	if c == nil || len(c.spans) == 0 {
		return 0
	}
	return len(c.spans)
}

// Delegate only forwards the receiver: the callee owns the nil check.
func (c *Collector) Delegate() {
	use(c)
}

// Chained delegates to a pointer-receiver method, which guards itself.
func (c *Collector) Chained() int {
	return c.Guarded()
}

// unguardedInternal is unexported: outside the contract (callers inside
// the package guard for it).
func (c *Collector) unguardedInternal() int {
	return len(c.spans)
}

func use(c *Collector) {}

type Registry struct {
	n int
}

// Blank receivers cannot dereference: exempt.
func (*Registry) Kind() string { return "registry" }
