package relation

import "math/bits"

// Tuple hashing is the one primitive everything keyed by a tuple is built
// on: the relation's dedup index, TupleSet, the join and semijoin build
// tables of package join, and the per-tuple digest of Fingerprint. It
// allocates nothing and reads each value byte once — there is no
// serialized key.
//
// The hash is fixed and unseeded: relbench's deterministic counts and the
// fingerprints relqueryd reports must repeat exactly from run to run. It
// is therefore not collision-resistant against an adversary, and nothing
// relies on it for an answer — every table confirms a candidate by
// comparing values, so a collision costs a comparison. (A per-process
// seed for cross-tenant cache keys is ROADMAP item 4's decision.)

const (
	hashOffset   = 14695981039346656037 // FNV-1a offset basis
	hashPrime    = 1099511628211        // FNV-1a prime
	hashBoundary = 0x9e3779b97f4a7c15   // odd multiplier of the value-boundary step
)

// hashMask is the seam of the total-collision tests: clearing it makes
// every tuple hash 0, so each index degenerates to one probe chain and
// set semantics rest on the value comparison alone. Only tests write it,
// through CollideAllHashes.
var hashMask = ^uint64(0)

// CollideAllHashes makes every tuple hash 0 until t's cleanup runs, so
// every Index — the relation's, TupleSet's, the join tables' — is one
// probe chain and set semantics rest on value comparison alone. It is a
// test seam, exported for the tests of the packages built on this one;
// t is the test's testing.TB. The hash is global: a test that calls it
// must not run in parallel with one that hashes.
func CollideAllHashes(t interface{ Cleanup(func()) }) {
	old := hashMask
	hashMask = 0
	t.Cleanup(func() { hashMask = old })
}

// hashValue folds one value into h: FNV-1a over its bytes, then a
// boundary step over its length with a rotation and a second multiplier,
// so a length is never mistaken for a byte and ("ab","c") and ("a","bc")
// — the same bytes split differently — hash apart.
func hashValue(h uint64, v Value) uint64 {
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * hashPrime
	}
	return bits.RotateLeft64(h^uint64(len(v)), 29) * hashBoundary
}

// hashFinish avalanches h (the 64-bit murmur3 finalizer): FNV's low bits
// depend only on the low bits of the input bytes, and the indexes take
// their slot from the low bits.
func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h & hashMask
}

// Hash returns the 64-bit hash of the tuple. Equal tuples hash equal;
// the converse is only probable, so callers compare before they conclude.
func (t Tuple) Hash() uint64 {
	h := uint64(hashOffset)
	for _, v := range t {
		h = hashValue(h, v)
	}
	return hashFinish(h)
}

// HashOf returns the hash of the tuple's projection onto the given
// columns, in that order, without building it: t.HashOf(cols) equals the
// Hash of the tuple (t[cols[0]], t[cols[1]], …).
func (t Tuple) HashOf(cols []int) uint64 {
	h := uint64(hashOffset)
	for _, c := range cols {
		h = hashValue(h, t[c])
	}
	return hashFinish(h)
}

// HashRefs returns the hash of the tuple (srcs[from[0].Src][from[0].Col],
// srcs[from[1].Src][from[1].Col], …) without building it: the Hash of
// the row Builder.Collect(srcs, from) would write. A join whose rows are
// row ids into its inputs hashes its key through it.
func HashRefs(srcs []Tuple, from []Ref) uint64 {
	h := uint64(hashOffset)
	for _, f := range from {
		h = hashValue(h, srcs[f.Src][f.Col])
	}
	return hashFinish(h)
}
