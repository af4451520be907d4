package join

import (
	"hash/fnv"
	"runtime"
	"sync"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// Parallel is a parallel hash join with two execution strategies chosen
// by the shape of the key domain:
//
//   - partitioned: both inputs are hash-partitioned on the
//     shared-attribute key into one bucket per worker, bucket pairs are
//     joined by a worker pool, and the per-bucket results are merged in
//     bucket order. Used when the build side has enough distinct keys
//     (≥ PartitionKeyFactor × workers) for the buckets to balance.
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
// without deduplicating; the merge still verifies key disjointness.
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

// keyedTuple carries a tuple together with its serialized join key so the
// key is computed exactly once, during partitioning.
type keyedTuple struct {
	key string
	t   relation.Tuple
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

	kl := newKeyExtractor(l.Scheme(), shared)
	kr := newKeyExtractor(r.Scheme(), shared)
	c := newCombiner(l.Scheme(), r.Scheme())

	// Build on the smaller input, as the sequential hash join does.
	build, probe := l, r
	keyBuild, keyProbe := kl, kr
	buildIsLeft := true
	if r.Len() < l.Len() {
		build, probe = r, l
		keyBuild, keyProbe = kr, kl
		buildIsLeft = false
	}
	table := make(map[string][]relation.Tuple, build.Len())
	var err error
	build.Each(func(t relation.Tuple) bool {
		if err = x.Gov.Tick(); err != nil {
			return false
		}
		k := keyBuild.key(t)
		table[k] = append(table[k], t)
		return true
	})
	if err != nil {
		return nil, err
	}

	ff := &firstFail{gov: x.Gov}
	var tuples [][]relation.Tuple
	if len(table) >= PartitionKeyFactor*w {
		x.Metrics.Partitioned(w)
		tuples = partitioned(table, probe, keyProbe, c, buildIsLeft, w, ff)
	} else {
		x.Metrics.Broadcast()
		tuples = broadcast(table, probe, keyProbe, c, buildIsLeft, w, ff)
	}
	if ff.err != nil {
		return nil, ff.err
	}
	// Merge in worker order. Output tuples from different chunks/buckets
	// are necessarily distinct (a natural-join output tuple determines
	// its source pair, and each pair is processed by exactly one
	// worker), so FromDistinctTuples assembles the result without
	// cloning, key serialization or index construction.
	out, err := relation.FromDistinctTuples(c.out, tuples...)
	if err != nil {
		return nil, err
	}
	if err := x.Gov.CheckRows(out.Len()); err != nil {
		return nil, err
	}
	x.Metrics.JoinWork(build.Len(), probe.Len(), out.Len())
	x.Metrics.ObserveJoin(out.Len())
	return x.Materialized(out)
}

// broadcast shares the build table read-only across workers and splits
// the probe side into w contiguous chunks. Emission order is exactly the
// sequential hash join's probe order.
func broadcast(table map[string][]relation.Tuple, probe *relation.Relation, keyProbe keyExtractor, c combiner, buildIsLeft bool, w int, ff *firstFail) [][]relation.Tuple {
	total := probe.Len()
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
				pt := probe.Tuple(i)
				ts = emitMatches(table[keyProbe.key(pt)], pt, c, buildIsLeft, ts)
			}
			tuples[wi] = ts
		}(wi, lo, hi)
	}
	wg.Wait()
	return tuples
}

// partitioned splits the build table and the probe side into w buckets
// by key hash and joins bucket pairs on the worker pool.
func partitioned(table map[string][]relation.Tuple, probe *relation.Relation, keyProbe keyExtractor, c combiner, buildIsLeft bool, w int, ff *firstFail) [][]relation.Tuple {
	// Scatter the already-built table into per-bucket mini-tables
	// without re-serializing any key.
	miniTables := make([]map[string][]relation.Tuple, w)
	for b := range miniTables {
		miniTables[b] = make(map[string][]relation.Tuple)
	}
	for k, ts := range table {
		b := bucketOf(k, w)
		miniTables[b][k] = ts
	}
	probeBuckets := partition(probe, keyProbe, w, ff)
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
				ts = emitMatches(miniTables[b][kt.key], kt.t, c, buildIsLeft, ts)
			}
			tuples[b] = ts
		}(b)
	}
	wg.Wait()
	return tuples
}

// emitMatches combines the probe tuple with every matching build tuple,
// appending the fresh output tuples.
func emitMatches(matches []relation.Tuple, pt relation.Tuple, c combiner, buildIsLeft bool, tuples []relation.Tuple) []relation.Tuple {
	for _, m := range matches {
		if buildIsLeft {
			tuples = append(tuples, c.combine(m, pt))
		} else {
			tuples = append(tuples, c.combine(pt, m))
		}
	}
	return tuples
}

// partition scatters rel into n buckets by hash of the join key,
// computing keys in parallel. Each worker takes a contiguous index range
// and scatters into private sub-buckets; concatenating sub-buckets in
// worker order preserves the relation's tuple order within every bucket,
// which keeps the overall join deterministic.
func partition(rel *relation.Relation, ke keyExtractor, n int, ff *firstFail) [][]keyedTuple {
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
				k := ke.key(t)
				b := bucketOf(k, n)
				mine[b] = append(mine[b], keyedTuple{key: k, t: t})
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

func bucketOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

var _ Algorithm = Parallel{}
