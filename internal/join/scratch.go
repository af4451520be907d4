package join

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"relquery/internal/relation"
)

// scratch holds the working arrays of one join call: the binary plan's
// operands, tables and ids, the searches' ranges and bindings, the tree
// join's marks and links. A call takes one from the free list and
// releases it on return; a nested call (a sink's Row that joins again)
// takes its own. Nothing a caller receives is carved from it.
type scratch struct {
	i32    plainSlab[int32]
	ints   plainSlab[int]
	words  plainSlab[uint64]
	refs   plainSlab[relation.Ref]
	ranges plainSlab[trieRange]
	tuples slab[relation.Tuple]
	values slab[relation.Value]
	attrs  slab[relation.Attribute]
	rels   slab[*relation.Relation]
	ops    slab[operand]
	tries  slab[sortedTrie]
	ins    slab[input]
	plan   binaryPlan // only its table's arrays and probe heads are kept from call to call
	tally  tally      // the generic join's written answer, counted
}

type anySlab interface {
	kept() int64
	reset(dirty bool)
}

func (s *scratch) slabs() [12]anySlab {
	return [...]anySlab{&s.i32, &s.ints, &s.words, &s.refs, &s.ranges, &s.tuples, &s.values, &s.attrs, &s.rels, &s.ops, &s.tries, &s.ins}
}

// bytes is what s holds: its slabs' arrays and the plan's table and heads.
func (s *scratch) bytes() int64 {
	n := s.plan.table.Bytes() + 4*int64(cap(s.plan.table.tail)+cap(s.plan.heads))
	for _, b := range s.slabs() {
		n += b.kept()
	}
	return n
}

// scratchCap is the most a kept scratch holds: one whose arrays passed it
// is dropped on release, and a large join's arrays go back to the heap.
const scratchCap = 256 << 10

// scratches is the free list, one scratch per processor that can run a
// call at once; unlike a sync.Pool's, they survive a collection.
var scratches = make(chan *scratch, runtime.GOMAXPROCS(0))

// takeScratch returns a kept scratch, or a new one when none is.
func takeScratch() *scratch {
	select {
	case s := <-scratches:
		return s
	default:
		return new(scratch)
	}
}

// release empties s, clearing every pointer so that it pins no relation,
// and returns it to the free list unless it passed scratchCap or the list
// is full. No slice carved from s is used after.
func (s *scratch) release() {
	if freshScratch.Load() || s.bytes() > scratchCap {
		return
	}
	for _, b := range s.slabs() {
		b.reset(dirtyScratch.Load())
	}
	t := s.plan.table
	s.plan = binaryPlan{heads: s.plan.heads, table: idTable{tail: t.tail,
		hashTable: hashTable{ix: t.ix, next: t.next, head: t.head, size: t.size}}}
	s.tally = tally{}
	select {
	case scratches <- s:
	default:
	}
}

// slab hands out slices of one array by bump allocation, each zeroed as
// make's is. A slice that does not fit is a make of its own, and the
// release that follows sizes the array for all that the call took.
type slab[E any] struct {
	buf  []E // buf[:len(buf)] is handed out
	used int // elements handed out since the last release
}

// take returns n zeroed elements, capped at n.
func (b *slab[E]) take(n int) []E {
	if b.used += n; len(b.buf)+n > cap(b.buf) {
		return make([]E, n)
	}
	b.buf = b.buf[:len(b.buf)+n]
	out := b.buf[len(b.buf)-n : len(b.buf) : len(b.buf)]
	clear(out)
	return out
}

func (b *slab[E]) kept() int64 { return int64(max(cap(b.buf), b.used)) * int64(unsafe.Sizeof(*new(E))) }

// reset clears the slab, so that it pins nothing, and empties it for its
// next call, its array grown to all that the last call took.
func (b *slab[E]) reset(bool) {
	if clear(b.buf); b.used > cap(b.buf) {
		b.buf = make([]E, 0, b.used)
	}
	b.buf, b.used = b.buf[:0], 0
}

// plainSlab is a slab whose elements hold no pointer, which dirty fills
// with 0xFF bytes once it is reset.
type plainSlab[E any] struct{ slab[E] }

func (b *plainSlab[E]) reset(dirty bool) {
	b.slab.reset(dirty)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.buf[:cap(b.buf)]))), uintptr(cap(b.buf))*unsafe.Sizeof(*new(E)))
	for i := 0; dirty && i < len(raw); i++ {
		raw[i] = 0xFF
	}
}

var freshScratch, dirtyScratch atomic.Bool // test hooks, false but under the two below

// FreshScratch keeps no scratch until t's cleanup: every call carves from
// an empty one, so its working arrays are makes a test can count.
func FreshScratch(t interface{ Cleanup(func()) }) { scratchHook(t, &freshScratch) }

// DirtyScratch fills every released plain slab with 0xFF bytes until t's
// cleanup: a call that reads what it did not write sees them.
func DirtyScratch(t interface{ Cleanup(func()) }) { scratchHook(t, &dirtyScratch) }

// scratchHook sets hook and empties the free list of what it kept before.
func scratchHook(t interface{ Cleanup(func()) }, hook *atomic.Bool) {
	for hook.Store(true); len(scratches) > 0; {
		takeScratch()
	}
	t.Cleanup(func() { hook.Store(false) })
}
