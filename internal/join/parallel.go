package join

import (
	"runtime"
	"sync"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// Parallel is a parallel hash join. The build-side hash table is built
// once and shared read-only by all workers, which run two passes with one
// barrier between them: a count pass that looks every probe row's matches
// up, after which the output's cardinality is known, checked against the
// budgets and allocated once; and an emit pass in which every worker
// fills its own part of that output. How the probe rows are dealt to the
// emit workers depends on the shape of the key domain:
//
//   - partitioned: the probe rows are scattered on the hash of the
//     shared-attribute key into one bucket per worker, so each worker
//     emits a disjoint slice of the key domain, and the parts are laid
//     out in bucket order. Used when the build side has enough distinct
//     keys (≥ PartitionKeyFactor × workers) for the buckets to balance.
//   - broadcast: the probe side is split into contiguous chunks. Used
//     when the key domain is small or skewed — the regime of the paper's
//     gadget relations, whose shared columns range over a handful of
//     symbols, where key partitioning would funnel everything through
//     one bucket.
//
// Both strategies are deterministic regardless of goroutine scheduling:
// chunk and bucket boundaries are pure functions of the inputs and the
// merge walks them in index order. Under set semantics the result always
// equals the sequential algorithms'; the broadcast path even reproduces
// the sequential hash join's insertion order exactly.
//
// A natural join of sets never produces duplicate tuples (an output
// tuple determines its left and right source tuples), so workers emit
// without deduplicating.
//
// Joins that cannot benefit — no shared attributes (a cross product has
// a single empty key) or inputs below MinParallelRows — fall back to the
// sequential Hash join.
//
// Metrics: built and probed count build- and probe-side rows, and the
// strategy chosen is recorded as a partitioned join (with its bucket
// count), a broadcast join, or a sequential fallback.
//
// Failure semantics: workers poll the shared governor per probe tuple and
// per output tuple, so the first checkpoint violation (cancel, deadline,
// row budget) is sticky and every other worker drains within one batch
// of it. A panic on a worker goroutine is recovered on that goroutine,
// recorded as the evaluation's failure, and surfaces as an error from
// Join — never a crashed process. All workers are joined (wg.Wait) before
// Join returns, so no goroutine outlives the call, even on failure.
type Parallel struct {
	// Workers is the number of partitions and worker goroutines;
	// values < 1 mean runtime.GOMAXPROCS(0).
	Workers int
}

// MinParallelRows is the combined input size below which Parallel
// delegates to the sequential Hash join: partitioning overhead dominates
// on tiny inputs.
const MinParallelRows = 256

// PartitionKeyFactor scales the partitioned-vs-broadcast decision: the
// partitioned strategy needs at least this many distinct build-side keys
// per worker to expect balanced buckets.
const PartitionKeyFactor = 8

// Name implements Algorithm.
func (Parallel) Name() string { return "parallel" }

func (p Parallel) workers() int {
	if p.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// EffectiveWorkers reports the worker count the join will actually use
// (resolving the GOMAXPROCS default), for trace annotation.
func (p Parallel) EffectiveWorkers() int { return p.workers() }

// firstFail collects the first failure across a join's worker pool and,
// when a governor is attached, makes it the evaluation's sticky failure
// so peer workers drain on their next poll.
type firstFail struct {
	gov  *governor.Governor
	once sync.Once
	err  error
}

func (f *firstFail) fail(err error) {
	if err == nil {
		return
	}
	f.gov.Fail(err)
	f.once.Do(func() { f.err = err })
}

// recoverTo converts a worker panic into a recorded failure; deferred on
// every worker goroutine.
func (f *firstFail) recoverTo(what string) {
	if rec := recover(); rec != nil {
		f.fail(Recovered(what, rec))
	}
}

// Join implements Algorithm.
func (p Parallel) Join(x Exec, l, r *relation.Relation) (*relation.Relation, error) {
	fault.Hit(fault.JoinStart)
	shared := l.Scheme().Intersect(r.Scheme())
	w := p.workers()
	if w <= 1 || shared.Len() == 0 || l.Len()+r.Len() < MinParallelRows {
		x.Metrics.SequentialFallback()
		return Hash{}.Join(x, l, r)
	}

	// Build on the smaller input, as the sequential hash join does.
	s := orient(l, r)
	table, err := buildTable(x.Gov, s.build, s.keyBuild, nil)
	if err != nil {
		return nil, err
	}

	// Count first, like Hash: the workers look every probe row's matches
	// up, the counts are summed and checked against the budgets, and only
	// then is the output allocated — once, at its exact size — and filled
	// by the same workers, each writing its own part of it.
	ff := &firstFail{gov: x.Gov}
	heads := make([]int32, s.probe.Len())
	var buckets [][]int32 // partitioned only: probe rows by key hash
	if table.keys() >= PartitionKeyFactor*w {
		x.Metrics.Partitioned(w)
		buckets = make([][]int32, w)
	} else {
		x.Metrics.Broadcast()
	}
	counts := probeAll(table, &s, heads, buckets, w, ff)
	if ff.err != nil {
		return nil, ff.err
	}
	rows := 0
	for _, n := range counts {
		rows += n
	}
	if err := x.Gov.CheckRows(rows); err != nil {
		return nil, err
	}
	x.Metrics.JoinWork(s.build.Len(), s.probe.Len(), rows)
	x.Metrics.ObserveJoin(rows)
	if err := x.Sized(rows, s.out.Len()); err != nil {
		return nil, err
	}
	b := relation.NewBuilder(s.out, rows)
	emitAll(table, &s, heads, buckets, counts, b, ff)
	if ff.err != nil {
		return nil, ff.err
	}
	return b.Relation(), nil
}

// emitAll is the emit pass: one worker per non-empty entry of counts
// fills its own part of b — counts[wi] rows — from the probe rows of
// bucket wi (partitioned) or of chunk wi (broadcast, buckets nil). Output
// tuples of different workers are necessarily distinct (a natural-join
// output tuple determines its source pair, and each pair is emitted by
// exactly one worker), so the parts assemble into the result in worker
// order without hashing or index construction.
func emitAll(table *hashTable, s *sides, heads []int32, buckets [][]int32, counts []int, b *relation.Builder, ff *firstFail) {
	var wg sync.WaitGroup
	for wi, n := range counts {
		if n == 0 {
			continue
		}
		part := b.Part(n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ff.recoverTo("parallel emit worker")
			fault.Hit(fault.ParallelWorker)
			if buckets != nil {
				for _, p := range buckets[wi] {
					if err := s.emit(ff.gov, part, table, int(heads[p]), s.probe.Tuple(int(p))); err != nil {
						ff.fail(err)
						return
					}
				}
				return
			}
			lo, hi := chunkOf(wi, len(counts), len(heads))
			for p := lo; p < hi; p++ {
				if err := s.emit(ff.gov, part, table, int(heads[p]), s.probe.Tuple(p)); err != nil {
					ff.fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// chunkOf returns worker wi's contiguous share [lo, hi) of total rows
// split over w workers; trailing workers get nothing when total < w.
func chunkOf(wi, w, total int) (lo, hi int) {
	chunk := (total + w - 1) / w
	lo = min(wi*chunk, total)
	return lo, min(lo+chunk, total)
}

// probeAll is the count pass: w workers each take a contiguous chunk of
// the probe side, look every row's matches up in the shared read-only
// build table (heads[p] = first match, as Hash does) and return their
// match counts per output part.
//
// With buckets nil (broadcast) worker wi's part is its own chunk, so
// emission order is exactly the sequential hash join's probe order. With
// buckets non-nil (partitioned) the probe rows are also scattered by the
// hash of their join key into one bucket — one output part — per worker:
// each worker scatters into private sub-buckets, and concatenating those
// in worker order preserves the relation's tuple order within every
// bucket, which keeps the join deterministic.
func probeAll(table *hashTable, s *sides, heads []int32, buckets [][]int32, w int, ff *firstFail) []int {
	type scatter struct {
		counts []int     // counts[b]: this worker's matches that go to part b
		rows   [][]int32 // partitioned only; rows[b]: its probe rows of bucket b
	}
	subs := make([]scatter, w)
	var wg sync.WaitGroup
	for wi := range subs {
		sub := &subs[wi]
		sub.counts = make([]int, w)
		if buckets != nil {
			sub.rows = make([][]int32, w)
		}
		lo, hi := chunkOf(wi, w, len(heads))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ff.recoverTo("parallel probe worker")
			fault.Hit(fault.ParallelWorker)
			for p := lo; p < hi; p++ {
				if err := ff.gov.Tick(); err != nil {
					ff.fail(err)
					return
				}
				pt := s.probe.Tuple(p)
				h := pt.HashOf(s.keyProbe)
				first, m := table.matches(h, pt, s.keyProbe)
				heads[p] = int32(first)
				part := wi
				if buckets != nil {
					part = int(h % uint64(w))
					sub.rows[part] = append(sub.rows[part], int32(p))
				}
				sub.counts[part] += m
			}
		}()
	}
	wg.Wait()
	counts := make([]int, w)
	for _, sub := range subs {
		for b, n := range sub.counts {
			counts[b] += n
		}
	}
	for b := range buckets {
		size := 0
		for _, sub := range subs {
			size += len(sub.rows[b])
		}
		buckets[b] = make([]int32, 0, size)
		for _, sub := range subs {
			buckets[b] = append(buckets[b], sub.rows[b]...)
		}
	}
	return counts
}

var _ Algorithm = Parallel{}
