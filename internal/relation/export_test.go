package relation

import "testing"

// CollideAllHashes makes every tuple hash 0 for the rest of the test, so
// every Index — the relation's, TupleSet's, the join tables' — is one
// probe chain and set semantics rest on value comparison alone. For the
// external test package, which can drive package join on top.
func CollideAllHashes(t testing.TB) {
	old := hashMask
	hashMask = 0
	t.Cleanup(func() { hashMask = old })
}
