package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/omp"
)

// tinySizes shrink every op to well under a millisecond.
var tinySizes = sizes{
	cloverCells: 16, cloverSteps: 2,
	nestedOuter: 4,
	cgRows:      300, cgIters: 3, cgGrain: 10,
	cholTiles: 3, cholTile: 4,
}

func tinySettings(workload string, trace bool) settings {
	return settings{
		workload: workload, seed: 7, seconds: 0.05, trace: trace,
		sz: tinySizes, threads: 2, blockDur: 5 * time.Millisecond,
		warmup: 1, setupReps: 2, traceCap: 1 << 14,
	}
}

// benchmarkNames reads the metric names and units BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricEmitted runs every workload at tiny scale in both passes and
// checks that the result names exactly the metrics BENCHMARK.json declares,
// with their units, and that every op passed its check.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			rep, err := run(tinySettings(sp.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d bypass=%v", sp.name, trace,
					res.Correct, res.Failed, res.Attempted, rep.Bypass)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", sp.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", sp.name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", sp.name, trace, name)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", sp.name, trace, err)
			}
		}
	}
}

// corrupting damages the output of every op it runs.
type corrupting struct{ workload }

func (c corrupting) op(rt omp.Runtime) {
	c.workload.op(rt)
	switch w := c.workload.(type) {
	case *clover:
		w.sim.G.Density[w.sim.G.C(0, 0)] += 1e-9
	case *nested:
		w.before--
	case *cgTasks:
		w.out.X[len(w.out.X)/2] += 1e-3
	case *cholesky:
		w.out[0][0] = -w.out[0][0]
	}
}

// TestCorruptedResultFails checks that a damaged output counts as a failed
// op, and an intact one does not.
func TestCorruptedResultFails(t *testing.T) {
	for _, sp := range specs {
		w := sp.build(3, tinySizes)
		w.oracle()
		for _, damage := range []bool{false, true} {
			var ops tally
			_, _, err := session(w, rtSpecs[2], sp.wait, 2, 0, func(rt omp.Runtime) {
				var ww workload = w
				if damage {
					ww = corrupting{w}
				}
				ops = timeOps(ww, rt, time.Millisecond, false, nil).ops
			})
			if err != nil {
				t.Fatal(err)
			}
			wantFailed := 0
			if damage {
				wantFailed = ops.attempted
			}
			if ops.attempted < 1 || ops.failed != wantFailed {
				t.Errorf("%s damage=%v: %d of %d ops failed, want %d (%v)", sp.name, damage,
					ops.failed, ops.attempted, wantFailed, ops.firstErr)
			}
		}
	}
}

// TestRuntimeEndsWithItsBlock checks that after each block's Shutdown the
// goroutine count returns to its baseline, so no runtime outlives its block
// to compete with the next one for the CPUs.
func TestRuntimeEndsWithItsBlock(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for _, sp := range specs {
		w := sp.build(5, tinySizes)
		w.oracle()
		for _, r := range rtSpecs {
			alive := 0
			_, _, err := session(w, r, sp.wait, 2, 1, func(rt omp.Runtime) {
				timeOps(w, rt, time.Millisecond, false, nil)
				alive = runtime.NumGoroutine()
			})
			if err != nil {
				t.Fatal(err)
			}
			if alive <= base {
				t.Errorf("%s/%s: %d goroutines while the runtime was alive, baseline %d", sp.name, r.label, alive, base)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%s/%s: %d goroutines after Shutdown, baseline %d", sp.name, r.label, n, base)
			}
		}
	}
}

// TestLayerAggMatchesSpans checks the span arithmetic on a hand-built trace:
// one op holding one top-level region of one member, with a barrier inside
// the body and one task.
func TestLayerAggMatchesSpans(t *testing.T) {
	const team, tc, node = 0x10, 0x20, 0x30
	evs := []event{
		{t: 0, op: 1, kind: evOpBegin},
		{t: 10, obj: team, op: 1, kind: evRegionBegin},
		{t: 15, obj: tc, aux: team, op: 1, kind: evMemberStart},
		{t: 20, obj: node, op: 1, kind: evTaskCreate},
		{t: 30, obj: tc, op: 1, kind: evBarrierEnter},
		{t: 32, obj: node, op: 1, kind: evTaskStart},
		{t: 40, obj: node, op: 1, kind: evTaskEnd},
		{t: 45, obj: tc, op: 1, kind: evBarrierExit},
		{t: 50, obj: tc, op: 1, kind: evMemberEnd},
		{t: 55, obj: team, op: 1, kind: evRegionEnd},
		{t: 60, op: 1, kind: evOpEnd},
		// an op cut short by a full buffer is skipped
		{t: 70, op: 2, kind: evOpBegin},
		{t: 71, obj: node, op: 2, kind: evTaskCreate},
	}
	var a layerAgg
	a.addEvents(evs)
	if a.ops != 1 || a.tasks != 1 {
		t.Fatalf("ops=%d tasks=%d, want 1 and 1", a.ops, a.tasks)
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"assign", a.assign[0], 5},
		{"barrier", a.barrier[0], 15},
		{"queue", a.queue[0], 12},
		{"body", a.body[0], 8},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	self := a.selfTimes()
	wantSelf := map[string]float64{
		"op_outside_regions_us":   0.015,
		"region_assign_us":        0.005,
		"member_body_excl_bar_us": 0.020,
		"barrier_wait_us":         0.015,
		"task_body_us":            0.008,
		"task_queue_wait_us":      0.012,
	}
	keys := make([]string, 0, len(wantSelf))
	for k := range wantSelf {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if d := self[k] - wantSelf[k]; d > 1e-12 || d < -1e-12 {
			t.Errorf("self %s = %v, want %v", k, self[k], wantSelf[k])
		}
	}
	if len(a.firstOp) != 7 {
		t.Errorf("first op kept %d spans, want 7", len(a.firstOp))
	}
}
