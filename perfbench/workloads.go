package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/cg"
	"repro/internal/cloverleaf"
	"repro/internal/dataflow"
	"repro/omp"
)

// sizes fixes the shape of one op of every workload. fullSizes is what the
// benchmark runs; the self-test shrinks it.
type sizes struct {
	cloverCells, cloverSteps int
	nestedOuter              int
	cgRows, cgIters, cgGrain int
	cholTiles, cholTile      int
}

var fullSizes = sizes{
	cloverCells: 128, cloverSteps: 2,
	nestedOuter: 100,
	cgRows:      cg.DefaultRows, cgIters: 5, cgGrain: 10,
	cholTiles: 12, cholTile: 32,
}

// workload is one op of a benchmark workload together with its oracle.
// Only op is timed; reset and check run outside the timed interval.
type workload interface {
	// oracle computes the serial reference output the checks compare with.
	oracle()
	// reset restores the op's inputs and snapshots what check needs; rt is
	// nil before a serial op.
	reset(rt omp.Runtime)
	// op runs one op on a team of the runtime's configured size.
	op(rt omp.Runtime)
	// serialOp runs the same op on the calling goroutine with no runtime.
	serialOp()
	// check compares the last op's output with the oracle.
	check(rt omp.Runtime) error
}

// spec names a workload, the wait policy the paper runs it under, and how
// its inputs are generated from the seed.
type spec struct {
	name  string
	wait  omp.WaitPolicy
	build func(seed uint64, sz sizes) workload
}

var specs = []spec{
	{"cloverleaf", omp.ActiveWait, newClover},
	{"nested", omp.PassiveWait, newNested},
	{"cg-tasks", omp.PassiveWait, newCGTasks},
	{"dataflow", omp.PassiveWait, newCholesky},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// threadsOf is the team size an op runs on.
func threadsOf(rt omp.Runtime) int { return rt.Config().NumThreads }

// ---------------------------------------------------------------------------
// cloverleaf: paper Fig. 6, work-sharing regions under active wait.

type clover struct {
	steps int
	sim   *cloverleaf.Simulation
	init  *cloverleaf.Grid // seeded initial state, restored before each op
	ref   *cloverleaf.Grid // state after the serial oracle's steps
}

// newClover builds the Sod two-state problem and perturbs every cell's
// density and energy by up to ±1% from the seed, so each seed is its own
// input while the flow stays the benchmark's well-posed blast problem.
func newClover(seed uint64, sz sizes) workload {
	sim := cloverleaf.NewSimulation(sz.cloverCells, sz.cloverCells)
	rng := rand.New(rand.NewPCG(seed, 0x636c6f766572))
	for i := range sim.G.Density {
		sim.G.Density[i] *= 1 + 0.01*(2*rng.Float64()-1)
		sim.G.Energy[i] *= 1 + 0.01*(2*rng.Float64()-1)
	}
	c := &clover{steps: sz.cloverSteps, sim: sim, init: cloverleaf.NewGrid(sz.cloverCells, sz.cloverCells)}
	copyGrid(c.init, sim.G)
	return c
}

// gridFields lists every array of g, so a copy or comparison covers the
// whole simulation state.
func gridFields(g *cloverleaf.Grid) [][]float64 {
	return [][]float64{g.Density, g.Energy, g.Pressure, g.Visc, g.SoundSp, g.XVel, g.YVel,
		g.VolFluxX, g.VolFluxY, g.MassFlux, g.Work, g.Work2}
}

func copyGrid(dst, src *cloverleaf.Grid) {
	d := gridFields(dst)
	for i, s := range gridFields(src) {
		copy(d[i], s)
	}
}

func (c *clover) oracle() {
	c.reset(nil)
	c.sim.RunSerial(c.steps)
	c.ref = cloverleaf.NewGrid(c.sim.G.NX, c.sim.G.NY)
	copyGrid(c.ref, c.sim.G)
}

func (c *clover) reset(omp.Runtime) {
	copyGrid(c.sim.G, c.init)
	c.sim.Steps, c.sim.Time, c.sim.LastDt = 0, 0, 0
}

func (c *clover) op(rt omp.Runtime) { c.sim.Run(rt, threadsOf(rt), c.steps) }

func (c *clover) serialOp() { c.sim.RunSerial(c.steps) }

func (c *clover) check(omp.Runtime) error {
	ref := gridFields(c.ref)
	for f, got := range gridFields(c.sim.G) {
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(ref[f][i]) {
				return fmt.Errorf("cloverleaf: field %d cell %d = %v, serial oracle %v", f, i, v, ref[f][i])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// nested: paper Listing 1 / Fig. 8, nested regions under passive wait.

type nested struct {
	outer  int
	before int64 // NestedRegions + SerializedRegions when the op began
}

// nestedBody is the empty inner-loop body. A package variable keeps the
// serial op from being optimised away, as the parallel op's body is not.
var nestedBody = func(int) {}

// newNested ignores the seed: Listing 1 is a fixed shape with no input data.
func newNested(_ uint64, sz sizes) workload { return &nested{outer: sz.nestedOuter} }

func nestedCount(rt omp.Runtime) int64 {
	s := rt.Stats()
	return s.NestedRegions + s.SerializedRegions
}

func (n *nested) oracle() {}

func (n *nested) reset(rt omp.Runtime) {
	if rt != nil {
		n.before = nestedCount(rt)
	}
}

func (n *nested) op(rt omp.Runtime) {
	threads := threadsOf(rt)
	rt.ParallelN(threads, func(tc *omp.TC) {
		tc.For(0, n.outer, func(int) {
			tc.Parallel(threads, func(itc *omp.TC) {
				itc.For(0, n.outer, nestedBody)
			})
		})
	})
}

func (n *nested) serialOp() {
	for i := 0; i < n.outer; i++ {
		for j := 0; j < n.outer; j++ {
			nestedBody(j)
		}
	}
}

func (n *nested) check(rt omp.Runtime) error {
	if d := nestedCount(rt) - n.before; d != int64(n.outer) {
		return fmt.Errorf("nested: op opened %d inner regions, want %d", d, n.outer)
	}
	return nil
}

// ---------------------------------------------------------------------------
// cg-tasks: paper Fig. 10, single-producer task-parallel CG.

type cgTasks struct {
	p        *cg.Problem
	opts     cg.Opts
	ref, out cg.Result
}

func newCGTasks(seed uint64, sz sizes) workload {
	return &cgTasks{
		p: cg.NewProblem(sz.cgRows, seed),
		// A tolerance no 5-iteration solve reaches fixes the iteration count.
		opts: cg.Opts{MaxIter: sz.cgIters, Tol: math.SmallestNonzeroFloat64, Granularity: sz.cgGrain},
	}
}

func (w *cgTasks) oracle() { w.ref = w.p.SolveSerial(w.opts) }

func (w *cgTasks) reset(omp.Runtime) { w.out = cg.Result{} }

func (w *cgTasks) op(rt omp.Runtime) { w.out = w.p.SolveTasks(rt, threadsOf(rt), w.opts) }

func (w *cgTasks) serialOp() { w.out = w.p.SolveSerial(w.opts) }

func (w *cgTasks) check(omp.Runtime) error {
	if w.out.Iterations != w.ref.Iterations {
		return fmt.Errorf("cg-tasks: %d iterations, serial solve %d", w.out.Iterations, w.ref.Iterations)
	}
	if d := cg.MaxAbsDiff(w.out.X, w.ref.X); !(d <= 1e-6) {
		return fmt.Errorf("cg-tasks: max |x - x_serial| = %g > 1e-6", d)
	}
	return nil
}

// ---------------------------------------------------------------------------
// dataflow: tiled Cholesky with In/InOut dependences and priorities.

type cholesky struct {
	c        *dataflow.Cholesky
	ref, out [][]float64
}

func newCholesky(seed uint64, sz sizes) workload {
	return &cholesky{c: dataflow.NewCholesky(sz.cholTiles, sz.cholTile, seed)}
}

func (w *cholesky) oracle() { w.ref = w.c.FactorSerial() }

func (w *cholesky) reset(omp.Runtime) { w.out = nil }

func (w *cholesky) op(rt omp.Runtime) { w.out = w.c.FactorTasks(rt, threadsOf(rt)) }

func (w *cholesky) serialOp() { w.out = w.c.FactorSerial() }

func (w *cholesky) check(omp.Runtime) error {
	if len(w.out) != len(w.ref) {
		return fmt.Errorf("dataflow: %d tiles, serial factor has %d", len(w.out), len(w.ref))
	}
	for t, tile := range w.out {
		if len(tile) != len(w.ref[t]) {
			return fmt.Errorf("dataflow: tile %d has %d entries, serial factor %d", t, len(tile), len(w.ref[t]))
		}
		for i, v := range tile {
			if math.Float64bits(v) != math.Float64bits(w.ref[t][i]) {
				return fmt.Errorf("dataflow: tile %d entry %d = %v, FactorSerial %v", t, i, v, w.ref[t][i])
			}
		}
	}
	return nil
}
