package join

import (
	"runtime"
	"sync"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// Parallel is a parallel hash join with two execution strategies chosen
// by the shape of the key domain:
//
//   - partitioned: the probe side is partitioned on the hash of the
//     shared-attribute key into one bucket per worker, so each worker
//     probes a disjoint slice of the key domain (and of the shared build
//     table), and the per-bucket results are merged in bucket order. Used
//     when the build side has enough distinct keys (≥ PartitionKeyFactor
//     × workers) for the buckets to balance.
//   - broadcast: the build-side hash table is built once and shared
//     read-only by all workers, and the probe side is split into
//     contiguous chunks. Used when the key domain is small or skewed —
//     the regime of the paper's gadget relations, whose shared columns
//     range over a handful of symbols, where key partitioning would
//     funnel everything through one bucket.
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
// Failure semantics: workers poll the shared governor per tuple, so the
// first checkpoint violation (cancel, deadline, row budget) is sticky
// and every other worker drains within one batch of it. A panic on a
// worker goroutine is recovered on that goroutine, recorded as the
// evaluation's failure, and surfaces as an error from Join — never a
// crashed process. All workers are joined (wg.Wait) before Join returns,
// so no goroutine outlives the call, even on failure.
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

// keyedTuple carries a tuple together with the hash of its join key so
// the key is hashed exactly once, during partitioning.
type keyedTuple struct {
	hash uint64
	t    relation.Tuple
}

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
	table, err := buildTable(x.Gov, s.build, s.keyBuild)
	if err != nil {
		return nil, err
	}

	ff := &firstFail{gov: x.Gov}
	var tuples [][]relation.Tuple
	if table.keys() >= PartitionKeyFactor*w {
		x.Metrics.Partitioned(w)
		tuples = partitioned(table, &s, w, ff)
	} else {
		x.Metrics.Broadcast()
		tuples = broadcast(table, &s, w, ff)
	}
	if ff.err != nil {
		return nil, ff.err
	}
	// Merge in worker order. Output tuples from different chunks/buckets
	// are necessarily distinct (a natural-join output tuple determines
	// its source pair, and each pair is processed by exactly one
	// worker), so FromDistinctTuples assembles the result without
	// cloning, hashing or index construction.
	out, err := relation.FromDistinctTuples(s.out, tuples...)
	if err != nil {
		return nil, err
	}
	if err := x.Gov.CheckRows(out.Len()); err != nil {
		return nil, err
	}
	x.Metrics.JoinWork(s.build.Len(), s.probe.Len(), out.Len())
	x.Metrics.ObserveJoin(out.Len())
	return x.Materialized(out)
}

// broadcast shares the build table read-only across workers and splits
// the probe side into w contiguous chunks. Emission order is exactly the
// sequential hash join's probe order.
func broadcast(table *hashTable, s *sides, w int, ff *firstFail) [][]relation.Tuple {
	total := s.probe.Len()
	chunk := (total + w - 1) / w
	tuples := make([][]relation.Tuple, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		lo := min(wi*chunk, total)
		hi := min(lo+chunk, total)
		if lo >= hi {
			continue // total < w: trailing workers have no rows
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			defer ff.recoverTo("parallel broadcast worker")
			fault.Hit(fault.ParallelWorker)
			var ts []relation.Tuple
			for i := lo; i < hi; i++ {
				if err := ff.gov.Tick(); err != nil {
					ff.fail(err)
					return
				}
				pt := s.probe.Tuple(i)
				ts = emitMatches(table, pt.HashOf(s.keyProbe), pt, s, ts)
			}
			tuples[wi] = ts
		}(wi, lo, hi)
	}
	wg.Wait()
	return tuples
}

// partitioned splits the probe side into w buckets by key hash and probes
// the shared build table with one worker per bucket.
func partitioned(table *hashTable, s *sides, w int, ff *firstFail) [][]relation.Tuple {
	probeBuckets := partition(s.probe, s.keyProbe, w, ff)
	if ff.err != nil {
		return nil
	}

	tuples := make([][]relation.Tuple, w)
	var wg sync.WaitGroup
	for b := 0; b < w; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			defer ff.recoverTo("parallel partitioned worker")
			fault.Hit(fault.ParallelWorker)
			var ts []relation.Tuple
			for _, kt := range probeBuckets[b] {
				if err := ff.gov.Tick(); err != nil {
					ff.fail(err)
					return
				}
				ts = emitMatches(table, kt.hash, kt.t, s, ts)
			}
			tuples[b] = ts
		}(b)
	}
	wg.Wait()
	return tuples
}

// emitMatches combines probe tuple pt, whose key hashes to h, with every
// matching build tuple in build order, appending the fresh output tuples.
func emitMatches(table *hashTable, h uint64, pt relation.Tuple, s *sides, tuples []relation.Tuple) []relation.Tuple {
	for i := table.first(h, pt, s.keyProbe); i >= 0; i = table.after(i) {
		tuples = append(tuples, s.pair(s.build.Tuple(i), pt))
	}
	return tuples
}

// partition scatters rel into n buckets by hash of the join key,
// hashing in parallel. Each worker takes a contiguous index range
// and scatters into private sub-buckets; concatenating sub-buckets in
// worker order preserves the relation's tuple order within every bucket,
// which keeps the overall join deterministic.
func partition(rel *relation.Relation, ke keyCols, n int, ff *firstFail) [][]keyedTuple {
	total := rel.Len()
	chunk := (total + n - 1) / n
	sub := make([][][]keyedTuple, n) // sub[worker][bucket]
	var wg sync.WaitGroup
	for wi := 0; wi < n; wi++ {
		lo := min(wi*chunk, total)
		hi := min(lo+chunk, total)
		if lo >= hi {
			continue // total < n: trailing workers have no rows
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			defer ff.recoverTo("parallel partition worker")
			fault.Hit(fault.ParallelWorker)
			mine := make([][]keyedTuple, n)
			for i := lo; i < hi; i++ {
				if err := ff.gov.Tick(); err != nil {
					ff.fail(err)
					return
				}
				t := rel.Tuple(i)
				h := t.HashOf(ke)
				b := h % uint64(n)
				mine[b] = append(mine[b], keyedTuple{hash: h, t: t})
			}
			sub[wi] = mine
		}(wi, lo, hi)
	}
	wg.Wait()

	buckets := make([][]keyedTuple, n)
	for b := 0; b < n; b++ {
		size := 0
		for wi := 0; wi < n; wi++ {
			if sub[wi] == nil {
				continue // worker wi had an empty chunk
			}
			size += len(sub[wi][b])
		}
		bucket := make([]keyedTuple, 0, size)
		for wi := 0; wi < n; wi++ {
			if sub[wi] == nil {
				continue
			}
			bucket = append(bucket, sub[wi][b]...)
		}
		buckets[b] = bucket
	}
	return buckets
}

var _ Algorithm = Parallel{}
