package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/glt"
	"repro/omp"
	"repro/openmp"
)

// rtSpec is one of the four runtimes under comparison.
type rtSpec struct {
	label, name, backend string
}

var rtSpecs = []rtSpec{
	{"gomp", "gomp", ""},
	{"iomp", "iomp", ""},
	{"glto-abt", "glto", "abt"},
	{"glto-ws", "glto", "ws"},
}

// newRuntime builds the runtime with the paper's ICVs (OMP_NESTED and
// OMP_PROC_BIND true) and the workload's wait policy. Nothing is read from
// the environment, so a run's configuration is fixed by its arguments.
func newRuntime(r rtSpec, wait omp.WaitPolicy, threads int) (omp.Runtime, error) {
	return openmp.New(r.name, omp.Config{
		NumThreads: threads,
		Backend:    r.backend,
		Nested:     true,
		BindProc:   true,
		WaitPolicy: wait,
	})
}

// tally counts ops attempted and failed and keeps the first failure.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// runOp runs one op, timed, between an untimed reset and an untimed check.
// With tr set, the op's begin and end are recorded in the trace.
func runOp(w workload, rt omp.Runtime, tr *spanTracer) (time.Duration, error) {
	w.reset(rt)
	if tr != nil {
		tr.beginOp()
	}
	t0 := time.Now()
	w.op(rt)
	d := time.Since(t0)
	if tr != nil {
		tr.endOp()
	}
	return d, w.check(rt)
}

// Indexes of counters: the runtime and GLT engine counters the per-layer
// metrics read.
const (
	cThreadsCreated = iota
	cThreadsReused
	cULTsCreated
	cTasksQueued
	cTasksDirect
	cTaskFlushes
	cBufferRaids
	cUnitsRun // GLT ULTs started plus tasklets run
	cParks
	cIdleSteals
	cBatchPushes
	cUnitsReused
	nCounters
)

type counters [nCounters]int64

// readCounters snapshots rt's counters; the GLT ones read zero for the
// pthread runtimes.
func readCounters(rt omp.Runtime) counters {
	s := rt.Stats()
	var g glt.Stats
	if gr, ok := rt.(interface{ GLT() *glt.Runtime }); ok {
		g = gr.GLT().Stats()
	}
	return counters{
		cThreadsCreated: s.ThreadsCreated,
		cThreadsReused:  s.ThreadsReused,
		cULTsCreated:    s.ULTsCreated,
		cTasksQueued:    s.TasksQueued,
		cTasksDirect:    s.TasksDirect,
		cTaskFlushes:    s.TaskFlushes,
		cBufferRaids:    s.TasksStolenFromBuffer,
		cUnitsRun:       g.ULTsStarted + g.TaskletsRun,
		cParks:          g.Parks,
		cIdleSteals:     g.IdleSteals,
		cBatchPushes:    g.BatchPushes,
		cUnitsReused:    g.UnitsReused,
	}
}

// add adds d times o to c.
func (c *counters) add(o counters, d int64) {
	for i := range c {
		c[i] += d * o[i]
	}
}

// block is what one runtime did in one timed phase.
type block struct {
	samples  []time.Duration // timed ops, in order
	ops      tally
	counters counters // deltas over the timed ops
	mallocs  uint64   // heap allocations over the timed ops
}

// session builds one runtime, runs warm-up ops, hands it to timed, and
// shuts it down before returning, so no other runtime is alive while it
// measures. It returns the construction time and the warm-up tally.
func session(w workload, r rtSpec, wait omp.WaitPolicy, threads, warmup int, timed func(rt omp.Runtime)) (time.Duration, tally, error) {
	var warm tally
	runtime.GC()
	t0 := time.Now()
	rt, err := newRuntime(r, wait, threads)
	newDur := time.Since(t0)
	if err != nil {
		return 0, warm, fmt.Errorf("%s: %w", r.label, err)
	}
	defer rt.Shutdown()
	for i := 0; i < warmup; i++ {
		_, err := runOp(w, rt, nil)
		warm.add(err)
	}
	if timed != nil {
		timed(rt)
	}
	return newDur, warm, nil
}

// timeOps runs timed ops on rt for dur (at least one), recording counter
// deltas over them, and heap allocations if allocs is set. With tr set, each
// op is tagged in the trace, and the loop also ends once the buffer is half
// full so that the next op's events are not dropped.
func timeOps(w workload, rt omp.Runtime, dur time.Duration, allocs bool, tr *spanTracer) block {
	var b block
	var ms0 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&ms0)
	}
	c0 := readCounters(rt)
	start := time.Now()
	for len(b.samples) == 0 || time.Since(start) < dur {
		if tr != nil && len(b.samples) > 0 && tr.used() > 0.5 {
			break
		}
		d, err := runOp(w, rt, tr)
		b.samples = append(b.samples, d)
		b.ops.add(err)
	}
	b.counters = readCounters(rt)
	b.counters.add(c0, -1)
	if allocs {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		b.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	return b
}

// liveMB collects garbage and returns the live heap plus goroutine stacks,
// in MB. Unlike MemStats.Sys, a high-water mark whose quartile spread on
// dataflow was 4 MB (37% of its median) across identical runs, it depends
// only on what the inputs and the live runtime hold.
func liveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc+ms.StackInuse) / (1 << 20)
}

// median of xs, which it sorts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// hdMedian is the Harrell–Davis estimate of the median of xs, which it
// sorts: the mean of the order statistics weighted by a Beta((n+1)/2,
// (n+1)/2) density. Pthread ops that wait on the kernel's scheduler tick
// take a few discrete durations, and the plain median of such samples jumps
// a whole tick between runs; this estimate moves smoothly between them.
func hdMedian(xs []float64) float64 {
	n := len(xs)
	sort.Float64s(xs)
	if n <= 2 {
		return median(xs)
	}
	a := float64(n+1) / 2
	la, _ := math.Lgamma(a)
	l2a, _ := math.Lgamma(2 * a)
	logBeta := 2*la - l2a
	pdf := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp((a-1)*(math.Log(x)+math.Log1p(-x)) - logBeta)
	}
	var num, den float64
	for i, x := range xs {
		// Simpson's rule over the order statistic's interval [i/n, (i+1)/n].
		lo, hi := float64(i)/float64(n), float64(i+1)/float64(n)
		w := (pdf(lo) + 4*pdf((lo+hi)/2) + pdf(hi)) * (hi - lo) / 6
		num += w * x
		den += w
	}
	return num / den
}

// quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
