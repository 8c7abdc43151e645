// Command perfbench is the repository's benchmark. It runs four of the
// paper's OpenMP workloads (cloverleaf, nested, cg-tasks, dataflow) on the
// four runtimes gomp, iomp, glto-abt and glto-ws, checks every op against a
// serial oracle, and prints one JSON result as its last line of output.
//
//	perfbench --workload cg-tasks --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced pass; with
// --trace 1 it reports the per-layer metrics of a traced pass. A full report
// with every per-op sample, and with --trace 1 the spans of one op per
// runtime, is written under --out. See README.md for the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/omp"
)

// settings are the knobs of one run; main fills them from the flags and the
// self-test shrinks them.
type settings struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	sz        sizes
	threads   int
	blockDur  time.Duration // timed ops per runtime per rotation slot
	warmup    int           // untimed ops after each runtime is built
	setupReps int           // set-ups measured at least; setup_s is their median
	setupFor  time.Duration // and until their timed parts add up to this
	traceCap  int           // trace buffer capacity, events
	outDir    string        // where reports go; empty writes none
}

func main() {
	s := settings{
		sz:        fullSizes,
		threads:   runtime.NumCPU(),
		blockDur:  400 * time.Millisecond,
		warmup:    1,
		setupReps: 5,
		setupFor:  time.Second,
		traceCap:  1 << 19,
	}
	flag.StringVar(&s.workload, "workload", "", "workload: cloverleaf, nested, cg-tasks or dataflow")
	flag.Uint64Var(&s.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&s.seconds, "seconds", 10, "seconds of measurement")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&s.outDir, "out", "", "directory for the run report and spans")
	flag.Parse()
	s.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if _, ok := lookupSpec(s.workload); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", s.workload)
		os.Exit(2)
	}
	if s.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	rep, err := run(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if s.outDir != "" {
		path, err := rep.write(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("report:", path)
	}
	rep.summary(os.Stdout)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host describes the machine a run measured.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostShape() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rtRun is everything one runtime did in a run.
type rtRun struct {
	Label      string    `json:"runtime"`
	OpMs       []float64 `json:"op_ms"`                  // untraced timed ops, in order
	TracedOpMs []float64 `json:"traced_op_ms,omitempty"` // traced timed ops, in order
	NewMs      []float64 `json:"new_ms"`                 // openmp.New, per block
	LiveMB     []float64 `json:"live_mb,omitempty"`      // live memory at the end of each untraced block
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	FirstError string    `json:"first_error,omitempty"`
	// SelfUsPerOp splits the traced ops' thread time by layer.
	SelfUsPerOp map[string]float64 `json:"self_us_per_op,omitempty"`

	ops      tally
	counters counters // traced ops' counter deltas, summed
	mallocs  uint64
	allocN   int // untraced ops the allocation count covers
	layers   layerAgg
}

func (r *rtRun) addBlock(b block, traced bool) {
	r.ops.merge(b.ops)
	if !traced {
		r.OpMs = append(r.OpMs, millis(b.samples)...)
		r.mallocs += b.mallocs
		r.allocN += len(b.samples)
		return
	}
	r.TracedOpMs = append(r.TracedOpMs, millis(b.samples)...)
	r.counters.add(b.counters, 1)
}

// report is a whole run: what it measured, on what, and the result line.
type report struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     host      `json:"host"`
	Threads  int       `json:"team_size"`
	Sizes    string    `json:"sizes"`
	BlockMs  float64   `json:"block_ms"`
	SetupS   []float64 `json:"setup_s,omitempty"`
	SerialMs []float64 `json:"serial_op_ms,omitempty"`
	Runtimes []*rtRun  `json:"runtimes"`
	Bypass   []string  `json:"bypass_violations,omitempty"`
	Dropped  int64     `json:"trace_events_dropped"`
	SysMB    float64   `json:"sys_mb"` // MemStats.Sys at the end of the run
	Result   result    `json:"result"`
}

func (sz sizes) String() string {
	return fmt.Sprintf("cloverleaf %dx%d cells %d steps; nested %d outer x %d inner; cg-tasks %d rows %d iterations granularity %d; dataflow %dx%d tiles of %dx%d",
		sz.cloverCells, sz.cloverCells, sz.cloverSteps, sz.nestedOuter, sz.nestedOuter,
		sz.cgRows, sz.cgIters, sz.cgGrain, sz.cholTiles, sz.cholTiles, sz.cholTile, sz.cholTile)
}

// run executes one benchmark run.
func run(s settings) (*report, error) {
	sp, _ := lookupSpec(s.workload)
	rep := &report{
		Workload: s.workload, Seed: s.seed, Seconds: s.seconds, Trace: s.trace,
		Host: hostShape(), Threads: s.threads, Sizes: s.sz.String(),
		BlockMs: float64(s.blockDur) / 1e6,
	}
	for _, r := range rtSpecs {
		rep.Runtimes = append(rep.Runtimes, &rtRun{Label: r.label})
	}

	var w workload
	var err error
	if s.trace {
		w = sp.build(s.seed, s.sz)
		w.oracle()
		err = tracedPass(s, sp, w, rep)
	} else {
		w, err = setup(s, sp, rep)
		if err == nil {
			err = timedPass(s, sp, w, rep)
		}
	}
	if err != nil {
		return nil, err
	}

	res := result{Metrics: map[string]metric{}}
	for _, rr := range rep.Runtimes {
		rr.Attempted, rr.Failed = rr.ops.attempted, rr.ops.failed
		if rr.ops.firstErr != nil {
			rr.FirstError = rr.ops.firstErr.Error()
		}
		res.Attempted += rr.Attempted
		res.Failed += rr.Failed
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.SysMB = float64(ms.Sys) / (1 << 20)
	if s.trace {
		rep.Bypass = bypassViolations(s.workload, rep.Runtimes)
		layerMetrics(res.Metrics, s, rep)
	} else {
		endToEndMetrics(res.Metrics, rep)
	}
	res.Correct = res.Failed == 0 && len(rep.Bypass) == 0
	rep.Result = res
	return rep, nil
}

// setup measures the run's set-up at least setupReps times, and until the
// measured set-ups add up to setupFor: input generation plus, for each
// runtime, its construction, warm-up ops and shutdown. Each set-up
// starts from fresh inputs, whose oracle is computed outside the timed part,
// and the previous set-up's inputs are collected before it, so the heap
// never holds two inputs. It returns the last inputs.
func setup(s settings, sp spec, rep *report) (workload, error) {
	var w workload
	var total time.Duration
	for i := 0; i < s.setupReps || total < s.setupFor; i++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		w = sp.build(s.seed, s.sz)
		gen := time.Since(t0)
		w.oracle()
		t1 := time.Now()
		for i, r := range rtSpecs {
			_, warm, err := session(w, r, sp.wait, s.threads, s.warmup, nil)
			if err != nil {
				return nil, err
			}
			rep.Runtimes[i].ops.merge(warm)
		}
		d := gen + time.Since(t1)
		total += d
		rep.SetupS = append(rep.SetupS, d.Seconds())
	}
	return w, nil
}

// timedPass rotates the runtimes, always in the same order, in blocks of
// s.blockDur until s.seconds have passed. It always finishes a round, so
// each runtime gets as many blocks.
func timedPass(s settings, sp spec, w workload, rep *report) error {
	start := time.Now()
	for time.Since(start).Seconds() < s.seconds {
		for i, r := range rtSpecs {
			rr := rep.Runtimes[i]
			newDur, warm, err := session(w, r, sp.wait, s.threads, s.warmup, func(rt omp.Runtime) {
				rr.addBlock(timeOps(w, rt, s.blockDur, false, nil), false)
				rr.LiveMB = append(rr.LiveMB, liveMB())
			})
			if err != nil {
				return err
			}
			rr.ops.merge(warm)
			rr.NewMs = append(rr.NewMs, float64(newDur)/1e6)
		}
	}
	return nil
}

// tracedPass rotates a serial slot and the four runtimes until s.seconds
// have passed. Each runtime slot times ops untraced, then traced on the same
// runtime, so both halves see the same host conditions.
func tracedPass(s settings, sp spec, w workload, rep *report) error {
	tr := newSpanTracer(s.traceCap)
	start := time.Now()
	for time.Since(start).Seconds() < s.seconds {
		rep.SerialMs = append(rep.SerialMs, serialBlock(w, s.blockDur)...)
		for i, r := range rtSpecs {
			rr := rep.Runtimes[i]
			newDur, warm, err := session(w, r, sp.wait, s.threads, s.warmup, func(rt omp.Runtime) {
				rr.addBlock(timeOps(w, rt, s.blockDur, true, nil), false)
				omp.SetTracer(tr)
				b := timeOps(w, rt, s.blockDur, false, tr)
				omp.SetTracer(nil)
				rr.addBlock(b, true)
			})
			if err != nil {
				return err
			}
			// The runtime is shut down, so no hook can still be recording.
			rep.Dropped += tr.dropped.Load()
			rr.layers.addEvents(tr.events())
			tr.reset()
			rr.ops.merge(warm)
			rr.NewMs = append(rr.NewMs, float64(newDur)/1e6)
		}
	}
	return nil
}

// serialBlock times the serial op for dur (at least once), in ms.
func serialBlock(w workload, dur time.Duration) []float64 {
	var out []float64
	start := time.Now()
	for len(out) == 0 || time.Since(start) < dur {
		w.reset(nil)
		t0 := time.Now()
		w.serialOp()
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return out
}

// bypassViolations checks the layers a workload must not use: dependence
// releases happen only in dataflow, and nested and cloverleaf create no
// tasks.
func bypassViolations(workload string, rts []*rtRun) []string {
	var out []string
	for _, rr := range rts {
		if workload != "dataflow" && rr.layers.depReleases != 0 {
			out = append(out, fmt.Sprintf("%s: %d dependence releases on %s", rr.Label, rr.layers.depReleases, workload))
		}
		if (workload == "nested" || workload == "cloverleaf") && rr.layers.tasks != 0 {
			out = append(out, fmt.Sprintf("%s: %d tasks on %s", rr.Label, rr.layers.tasks, workload))
		}
	}
	return out
}

// endToEndMetrics fills the --trace 0 metrics.
func endToEndMetrics(m map[string]metric, rep *report) {
	var live float64
	for _, rr := range rep.Runtimes {
		ops := append([]float64(nil), rr.OpMs...)
		m[rr.Label+".op_p50_ms"] = metric{hdMedian(ops), "ms"}
		m[rr.Label+".ops_per_s"] = metric{float64(len(rr.OpMs)) / (sum(rr.OpMs) / 1e3), "1/s"}
		live += median(append([]float64(nil), rr.LiveMB...)) / float64(len(rep.Runtimes))
	}
	m["setup_s"] = metric{median(append([]float64(nil), rep.SetupS...)), "s"}
	m["mem_live_mb"] = metric{live, "MB"}
}

// ratio is a/b, or 0 when b is 0 (the layer was bypassed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p50us is the median of ns samples in µs, or 0 with no samples.
func p50us(ns []float64) float64 { return median(ns) / 1e3 }

// layerMetrics fills the --trace 1 metrics.
func layerMetrics(m map[string]metric, s settings, rep *report) {
	serial := hdMedian(append([]float64(nil), rep.SerialMs...))
	m["serial.op_p50_ms"] = metric{serial, "ms"}
	for _, rr := range rep.Runtimes {
		l := &rr.layers
		rr.SelfUsPerOp = l.selfTimes()
		ops := float64(len(rr.TracedOpMs))
		c := rr.counters
		per := func(i int) float64 { return ratio(float64(c[i]), ops) }
		untraced := hdMedian(append([]float64(nil), rr.OpMs...))
		traced := hdMedian(append([]float64(nil), rr.TracedOpMs...))
		set := func(name string, v float64, unit string) { m[rr.Label+"."+name] = metric{v, unit} }

		set("engine.new_ms", median(append([]float64(nil), rr.NewMs...)), "ms")
		set("engine.threads_created_per_op", per(cThreadsCreated), "count/op")
		set("engine.threads_reused_per_op", per(cThreadsReused), "count/op")
		set("engine.ults_created_per_op", per(cULTsCreated), "count/op")

		set("omp.region_assign_us_p50", p50us(l.assign), "us")
		set("omp.barrier_wait_us_p50", p50us(l.barrier), "us")
		set("omp.task_queue_us_p50", p50us(l.queue), "us")
		set("omp.tasks_queued_share", ratio(float64(c[cTasksQueued]), float64(c[cTasksQueued]+c[cTasksDirect])), "ratio")
		set("omp.steal_hit_ratio", ratio(float64(l.toursHit), float64(l.tours)), "ratio")
		set("omp.task_flushes_per_op", per(cTaskFlushes), "count/op")
		set("omp.buffer_raids_per_op", per(cBufferRaids), "count/op")
		set("omp.dep_releases_per_op", ratio(float64(l.depReleases), float64(l.ops)), "count/op")
		set("omp.dep_chained_share", ratio(float64(l.depChained), float64(l.depReleases)), "ratio")
		set("omp.allocs_per_op", ratio(float64(rr.mallocs), float64(rr.allocN)), "count/op")

		set("glt.parks_per_op", per(cParks), "count/op")
		set("glt.idle_steals_per_op", per(cIdleSteals), "count/op")
		set("glt.batch_pushes_per_op", per(cBatchPushes), "count/op")
		set("glt.units_reused_share", ratio(float64(c[cUnitsReused]), float64(c[cUnitsRun])), "ratio")

		set("body.task_us_p50", p50us(l.body), "us")
		set("efficiency", ratio(serial, float64(s.threads)*untraced), "ratio")
		set("trace_overhead", ratio(traced, untraced), "ratio")
	}
}

// summary prints a human-readable digest of the run.
func (rep *report) summary(f io.Writer) {
	h := rep.Host
	fmt.Fprintf(f, "perfbench %s seed=%d trace=%v: %d CPUs, GOMAXPROCS=%d, %s, %s; team of %d\n",
		rep.Workload, rep.Seed, rep.Trace, h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, rep.Threads)
	fmt.Fprintf(f, "sizes: %s\n", rep.Sizes)
	for _, rr := range rep.Runtimes {
		xs := append([]float64(nil), rr.OpMs...)
		p50 := hdMedian(xs) // sorts xs
		fmt.Fprintf(f, "  %-9s n=%-5d p50=%.3fms p90=%.3fms max=%.3fms failed=%d/%d\n", rr.Label, len(xs),
			p50, quantile(xs, 0.9), quantile(xs, 1), rr.Failed, rr.Attempted)
		if rr.FirstError != "" {
			fmt.Fprintf(f, "    first failure: %s\n", rr.FirstError)
		}
	}
	for _, v := range rep.Bypass {
		fmt.Fprintf(f, "  bypass violated: %s\n", v)
	}
}

// write stores the report, and with --trace 1 the spans, under s.outDir.
func (rep *report) write(s settings) (string, error) {
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	base := filepath.Join(s.outDir, fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, rep.Seed, trace))
	if err := writeJSON(base+".json", rep); err != nil {
		return "", err
	}
	if rep.Trace {
		spans := map[string][]span{}
		for _, rr := range rep.Runtimes {
			spans[rr.Label] = rr.layers.firstOp
		}
		if err := writeJSON(base+"-spans.json", spans); err != nil {
			return "", err
		}
	}
	return base + ".json", nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
