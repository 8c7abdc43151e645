package main

import (
	"sync/atomic"
	"time"
	"unsafe"

	"repro/omp"
)

// Event kinds. The benchmark records opBegin/opEnd itself around each op;
// the rest come from the omp.Tracer hooks.
const (
	evOpBegin uint8 = iota + 1
	evOpEnd
	evRegionBegin
	evRegionEnd
	evMemberStart
	evMemberEnd
	evBarrierEnter
	evBarrierExit
	evTaskCreate
	evTaskStart
	evTaskEnd
	evDepRelease
	evStealTour
)

// event is one trace record. obj identifies the team, TC or task node the
// event belongs to; aux carries the event's extra datum (the team of a TC
// event, a region's level, a release's DepPath, a steal tour's hit). Both
// are plain integers, so the buffer holds no pointers for the GC to scan.
type event struct {
	t    int64 // ns since the tracer's base time
	obj  uintptr
	aux  uintptr
	op   int32 // op the event happened in; 0 outside ops
	kind uint8
}

// spanTracer records events into a preallocated buffer. Its hooks never
// allocate or lock: each claims a slot with one atomic add. Events past the
// buffer's end are dropped and counted.
type spanTracer struct {
	base    time.Time
	buf     []event
	next    atomic.Int64
	dropped atomic.Int64
	op      atomic.Int32
	lastOp  int32 // ops are numbered from 1; only the initial thread numbers them
}

func newSpanTracer(capacity int) *spanTracer {
	return &spanTracer{base: time.Now(), buf: make([]event, capacity)}
}

func (s *spanTracer) record(kind uint8, obj, aux uintptr) {
	t := int64(time.Since(s.base))
	i := s.next.Add(1) - 1
	if i >= int64(len(s.buf)) {
		s.dropped.Add(1)
		return
	}
	s.buf[i] = event{t: t, obj: obj, aux: aux, op: s.op.Load(), kind: kind}
}

// events returns the recorded events in the order their slots were claimed,
// which orders any two causally related events.
func (s *spanTracer) events() []event {
	return s.buf[:min(s.next.Load(), int64(len(s.buf)))]
}

// used reports the filled share of the buffer.
func (s *spanTracer) used() float64 { return float64(s.next.Load()) / float64(len(s.buf)) }

// reset empties the buffer; no hook may be running.
func (s *spanTracer) reset() {
	s.next.Store(0)
	s.dropped.Store(0)
}

func (s *spanTracer) beginOp() {
	s.lastOp++
	s.op.Store(s.lastOp)
	s.record(evOpBegin, 0, 0)
}

func (s *spanTracer) endOp() {
	s.record(evOpEnd, 0, 0)
	s.op.Store(0)
}

func addr[T any](p *T) uintptr { return uintptr(unsafe.Pointer(p)) }

// RegionBegin implements omp.Tracer.
func (s *spanTracer) RegionBegin(t *omp.Team) {
	s.record(evRegionBegin, addr(t), uintptr(t.Level))
}

// RegionEnd implements omp.Tracer.
func (s *spanTracer) RegionEnd(t *omp.Team) { s.record(evRegionEnd, addr(t), 0) }

// MemberStart implements omp.Tracer.
func (s *spanTracer) MemberStart(tc *omp.TC) {
	s.record(evMemberStart, addr(tc), addr(tc.Team()))
}

// MemberEnd implements omp.Tracer.
func (s *spanTracer) MemberEnd(tc *omp.TC) { s.record(evMemberEnd, addr(tc), 0) }

// TaskCreate implements omp.Tracer.
func (s *spanTracer) TaskCreate(_ *omp.Team, n *omp.TaskNode) {
	s.record(evTaskCreate, addr(n), 0)
}

// TaskStart implements omp.Tracer.
func (s *spanTracer) TaskStart(_ *omp.Team, n *omp.TaskNode) {
	s.record(evTaskStart, addr(n), 0)
}

// TaskEnd implements omp.Tracer.
func (s *spanTracer) TaskEnd(_ *omp.Team, n *omp.TaskNode) { s.record(evTaskEnd, addr(n), 0) }

// TaskCancel implements omp.Tracer. No workload cancels, so it records
// nothing.
func (s *spanTracer) TaskCancel(*omp.Team, *omp.TaskNode) {}

// DepRelease implements omp.Tracer.
func (s *spanTracer) DepRelease(_ *omp.Team, n *omp.TaskNode, path omp.DepPath) {
	s.record(evDepRelease, addr(n), uintptr(path))
}

// StealTour implements omp.Tracer.
func (s *spanTracer) StealTour(t *omp.Team, _ int, found bool) {
	var hit uintptr
	if found {
		hit = 1
	}
	s.record(evStealTour, addr(t), hit)
}

// BarrierEnter implements omp.Tracer.
func (s *spanTracer) BarrierEnter(tc *omp.TC) { s.record(evBarrierEnter, addr(tc), 0) }

// BarrierExit implements omp.Tracer.
func (s *spanTracer) BarrierExit(tc *omp.TC) { s.record(evBarrierExit, addr(tc), 0) }

// layerAgg accumulates, per runtime, what the traced ops' events show about
// each layer. Durations are kept as samples for percentiles; self times are
// summed as thread time.
type layerAgg struct {
	ops int
	// samples, ns
	assign, barrier, queue, body []float64
	// counts
	tasks, depReleases, depChained, tours, toursHit int64
	// summed thread time, ns
	opWall, topRegions, members, bodyBarriers, barriers, taskBodies, queueWait int64
	// spans of the first complete traced op, up to maxSpans, for the span file
	firstOp []span
}

// maxSpans caps the spans kept per runtime for the span file: a cg-tasks op
// alone has some 70,000.
const maxSpans = 20000

// span is one matched begin/end pair; lane is the TC, team or task node.
type span struct {
	Name  string `json:"name"`
	Op    int32  `json:"op"`
	Lane  uint64 `json:"lane"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// addEvents folds the events of complete ops into a. An op is complete when
// its opEnd was recorded; events of ops cut short by a full buffer are
// skipped.
func (a *layerAgg) addEvents(evs []event) {
	complete := map[int32]bool{}
	for _, e := range evs {
		if e.kind == evOpEnd {
			complete[e.op] = true
		}
	}
	keepSpans := a.firstOp == nil
	var first int32
	teamBegin := map[uintptr]int64{}
	topBegin := map[uintptr]int64{}
	memberStart := map[uintptr]int64{}
	inBody := map[uintptr]bool{}
	barrierStart := map[uintptr]int64{}
	created := map[uintptr]int64{}
	started := map[uintptr]int64{}
	var opStart int64
	emit := func(name string, e event, lane uintptr, start int64) {
		if keepSpans && e.op == first && len(a.firstOp) < maxSpans {
			a.firstOp = append(a.firstOp, span{name, e.op, uint64(lane), start, e.t})
		}
	}
	for _, e := range evs {
		if e.op == 0 || !complete[e.op] {
			continue
		}
		if first == 0 {
			first = e.op
		}
		switch e.kind {
		case evOpBegin:
			opStart = e.t
			a.ops++
		case evOpEnd:
			a.opWall += e.t - opStart
			emit("op", e, 0, opStart)
		case evRegionBegin:
			teamBegin[e.obj] = e.t
			if e.aux == 0 {
				topBegin[e.obj] = e.t
			}
		case evRegionEnd:
			if t0, ok := topBegin[e.obj]; ok {
				a.topRegions += e.t - t0
				delete(topBegin, e.obj)
				emit("region", e, e.obj, t0)
			}
		case evMemberStart:
			if t0, ok := teamBegin[e.aux]; ok {
				a.assign = append(a.assign, float64(e.t-t0))
				emit("assign", e, e.obj, t0)
			}
			memberStart[e.obj] = e.t
			inBody[e.obj] = true
		case evMemberEnd:
			a.members += e.t - memberStart[e.obj]
			inBody[e.obj] = false
			emit("member", e, e.obj, memberStart[e.obj])
		case evBarrierEnter:
			barrierStart[e.obj] = e.t
		case evBarrierExit:
			d := e.t - barrierStart[e.obj]
			a.barrier = append(a.barrier, float64(d))
			a.barriers += d
			if inBody[e.obj] {
				a.bodyBarriers += d
			}
			emit("barrier", e, e.obj, barrierStart[e.obj])
		case evTaskCreate:
			created[e.obj] = e.t
			a.tasks++
		case evTaskStart:
			d := e.t - created[e.obj]
			a.queue = append(a.queue, float64(d))
			a.queueWait += d
			started[e.obj] = e.t
			emit("task_queue", e, e.obj, created[e.obj])
		case evTaskEnd:
			d := e.t - started[e.obj]
			a.body = append(a.body, float64(d))
			a.taskBodies += d
			emit("task_body", e, e.obj, started[e.obj])
		case evDepRelease:
			a.depReleases++
			if omp.DepPath(e.aux) == omp.DepDispatchChained {
				a.depChained++
			}
		case evStealTour:
			a.tours++
			a.toursHit += int64(e.aux)
		}
	}
}

// selfTimes splits the traced ops' thread time by layer, in µs per op, and
// adds the tasks' summed queue residency, which is waiting, not thread time.
// Tasks have no executing thread in the tracer hooks, so task bodies are
// their own layer and stay inside the barrier waits and member bodies that
// ran them.
func (a *layerAgg) selfTimes() map[string]float64 {
	per := func(ns int64) float64 {
		if a.ops == 0 {
			return 0
		}
		return float64(ns) / 1e3 / float64(a.ops)
	}
	var assign int64
	for _, d := range a.assign {
		assign += int64(d)
	}
	return map[string]float64{
		"op_outside_regions_us":   per(a.opWall - a.topRegions),
		"region_assign_us":        per(assign),
		"member_body_excl_bar_us": per(a.members - a.bodyBarriers),
		"barrier_wait_us":         per(a.barriers),
		"task_body_us":            per(a.taskBodies),
		"task_queue_wait_us":      per(a.queueWait),
	}
}
