package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/metrics"
	"repro/internal/miqp"
	"repro/internal/serve"
)

// The traced run wraps each layer's public interface, takes runtime.MemStats
// deltas and the plans' solver counters, and rolls a CPU profile up by
// package and function for the solver phases that run inside one Decide.

// solverTrace measures around the optimizer calls (Scheduler.Decide, or
// Planner.Replan on serve-dense) and the TIR provider.
type solverTrace struct {
	prof      bytes.Buffer
	gcStart   runtime.MemStats
	gcEnd     runtime.MemStats
	ms        runtime.MemStats
	calls     int
	solver    miqp.Stats
	wallNS    int64
	cpuNS     int64
	allocs    uint64
	allocB    uint64
	callMS    []float64
	enterCPU  time.Duration
	enterWall time.Time
	enterMal  uint64
	enterB    uint64

	paramsCalls atomic.Int64
	observeNS   atomic.Int64
}

func (s *solverTrace) start() error {
	runtime.ReadMemStats(&s.gcStart)
	return pprof.StartCPUProfile(&s.prof)
}

// stop ends the measured section: it stops the profile and takes the
// closing GC counters.
func (s *solverTrace) stop() {
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&s.gcEnd)
}

// enter runs just before an optimizer call's timer starts.
func (s *solverTrace) enter() {
	runtime.ReadMemStats(&s.ms)
	s.enterMal, s.enterB = s.ms.Mallocs, s.ms.TotalAlloc
	s.enterCPU = cpuNow()
	s.enterWall = time.Now()
}

// leave runs just after the optimizer call's timer stopped; took is the
// call's CPU time as the end-to-end metrics measure it.
func (s *solverTrace) leave(took time.Duration, plan *edgesim.Plan) {
	s.wallNS += time.Since(s.enterWall).Nanoseconds()
	s.cpuNS += (cpuNow() - s.enterCPU).Nanoseconds()
	runtime.ReadMemStats(&s.ms)
	s.allocs += s.ms.Mallocs - s.enterMal
	s.allocB += s.ms.TotalAlloc - s.enterB
	s.calls++
	s.callMS = append(s.callMS, float64(took.Nanoseconds())/1e6)
	solverStats(&s.solver, plan)
}

// tracedProvider counts Params calls and times Observe on a fresh online
// tuner. Params may be called from concurrent domain solves.
type tracedProvider struct {
	inner core.ParamsProvider
	tr    *solverTrace
}

func (s *solverTrace) provider() core.ParamsProvider {
	return &tracedProvider{inner: core.NewOnlineTuner(0.04, 0.07), tr: s}
}

func (p *tracedProvider) Params(k core.ModelKey) bandit.TIRParams {
	p.tr.paramsCalls.Add(1)
	return p.inner.Params(k)
}

func (p *tracedProvider) Observe(k core.ModelKey, b int, tir float64) {
	start := time.Now()
	p.inner.Observe(k, b, tir)
	p.tr.observeNS.Add(time.Since(start).Nanoseconds())
}

func (p *tracedProvider) Tick() { p.inner.Tick() }

// solverMetrics reports the layers below the optimizer call, each per call,
// and the runtime's GC work per operation.
func (s *solverTrace) solverMetrics(ops float64) (map[string]metric, error) {
	n := float64(max(s.calls, 1))
	st := s.solver
	hitRatio := 0.0
	if st.WarmAttempts > 0 {
		hitRatio = float64(st.WarmHits) / float64(st.WarmAttempts)
	}
	busy := 0.0
	if s.wallNS > 0 {
		busy = float64(s.cpuNS) / float64(s.wallNS)
	}
	roll, err := rollUp(s.prof.Bytes())
	if err != nil {
		return nil, err
	}
	perCall := func(v int) float64 { return float64(v) / n }
	cpuMS := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	m := map[string]metric{
		"lp.pivots":                {perCall(st.Pivots), "count"},
		"lp.dual_pivots":           {perCall(st.DualPivots), "count"},
		"lp.refactorizations":      {perCall(st.Refactorizations), "count"},
		"lp.factor_reuses":         {perCall(st.FactorReuses), "count"},
		"lp.eta_length":            {perCall(st.EtaLength), "count"},
		"lp.cpu_ms":                {cpuMS(roll.pkg["lp"]), "ms"},
		"miqp.nodes":               {perCall(st.Nodes), "count"},
		"miqp.relaxations":         {perCall(st.Relaxations), "count"},
		"miqp.warm_hits":           {perCall(st.WarmHits), "count"},
		"miqp.warm_fallbacks":      {perCall(st.WarmFallbacks), "count"},
		"miqp.warm_hit_ratio":      {hitRatio, "ratio"},
		"miqp.presolve_fixed_vars": {perCall(st.PresolveFixedVars), "count"},
		"miqp.root_cut_bounds":     {perCall(st.RootCutBounds), "count"},
		"miqp.cpu_ms":              {cpuMS(roll.pkg["miqp"]), "ms"},
		"core.redistribute_cpu_ms": {cpuMS(roll.fn[fnRedistribute]), "ms"},
		"core.solve_edge_cpu_ms":   {cpuMS(roll.fn[fnSolveEdge]), "ms"},
		"core.hier_coord_cpu_ms":   {cpuMS(roll.fn[fnHierCoord]), "ms"},
		"core.decide_allocs":       {float64(s.allocs) / n, "count"},
		"core.decide_kb":           {float64(s.allocB) / 1e3 / n, "KB"},
		"core.incumbent_seeded":    {perCall(st.IncumbentSeeded), "count"},
		"core.incumbent_repaired":  {perCall(st.IncumbentRepaired), "count"},
		"core.incumbent_rejected":  {perCall(st.IncumbentRejected), "count"},
		"core.memo_hits":           {perCall(st.MemoHits), "count"},
		"core.delta_skipped_edges": {perCall(st.DeltaSkippedEdges), "count"},
		"par.busy_cores":           {busy, "cores"},
		"bandit.observe_us":        {float64(s.observeNS.Load()) / 1e3 / n, "us"},
		"bandit.params_calls":      {float64(s.paramsCalls.Load()) / n, "count"},
		"runtime.gc_cycles":        {float64(s.gcEnd.NumGC-s.gcStart.NumGC) / ops, "count"},
		"runtime.gc_pause_ms":      {float64(s.gcEnd.PauseTotalNs-s.gcStart.PauseTotalNs) / 1e6 / ops, "ms"},
		"traced.plan_ms_p50":       {quantile(s.callMS, 0.5), "ms"},
	}
	return m, nil
}

// schedTrace adds the simulator's share to the solver trace.
type schedTrace struct {
	solverTrace
	wrapNS       int64   // CPU time inside the recorder's Decide and Observe
	decideCPU    float64 // CPU ns inside Decide
	observeEnter time.Duration
	batches      int
}

func newSchedTrace() *schedTrace { return &schedTrace{} }

func (t *schedTrace) leaveDecide(took time.Duration, plan *edgesim.Plan) {
	t.leave(took, plan)
	t.decideCPU += float64(took.Nanoseconds())
	t.wrapNS += (cpuNow() - t.enterCPU).Nanoseconds()
}

func (t *schedTrace) enterObserve() { t.observeEnter = cpuNow() }

func (t *schedTrace) leaveObserve(batches int) {
	t.batches += batches
	t.wrapNS += (cpuNow() - t.observeEnter).Nanoseconds()
}

// finish stops the trace and reports every per-layer metric; the serving
// layers read 0 on a scheduler workload.
func (t *schedTrace) finish(slots, requests float64, runTime time.Duration) (map[string]metric, error) {
	t.stop()
	m, err := t.solverMetrics(slots)
	if err != nil {
		return nil, err
	}
	m["edgesim.slot_ms"] = metric{float64(runTime.Nanoseconds()-t.wrapNS) / 1e6 / slots, "ms"}
	m["edgesim.batches"] = metric{float64(t.batches) / slots, "count"}
	m["traced.slots_per_s"] = metric{slots / runTime.Seconds(), "1/s"}
	m["traced.decisions_per_s"] = metric{requests / (t.decideCPU / 1e9), "1/s"}
	for _, name := range serveLayerMetrics {
		m[name.name] = metric{0, name.unit}
	}
	return m, nil
}

// serveLayerMetrics are the serving-layer metrics, which read 0 on the
// scheduler workloads.
var serveLayerMetrics = []struct{ name, unit string }{
	{"serve.admit_ns", "ns"},
	{"serve.route_ns", "ns"},
	{"serve.submit_self_ns", "ns"},
	{"serve.log_bytes", "B"},
	{"serve.allocs", "count"},
	{"serve.heap_bytes", "B"},
	{"serve.replans", "count"},
	{"serve.forced_replans", "count"},
	{"serve.rejected_rate_limit", "count"},
	{"serve.stale_ms_p50", "ms"},
	{"serve.stale_ms_p99", "ms"},
}

// serveTrace adds the serving layers: admission, routing, the decision log
// and Submit itself.
type serveTrace struct {
	solverTrace
	admitNS, routeNS, logNS, submitNS int64
	replanWrapNS                      int64
	replanEnter                       time.Time
	mallocs                           uint64
	logBytes                          float64 // per decision
	passMS                            runtime.MemStats
	stats                             *metrics.ServeStats // the last replay's
}

func newServeTrace() *serveTrace { return &serveTrace{} }

func (t *serveTrace) enterReplan() {
	t.replanEnter = time.Now()
	t.enter()
}

func (t *serveTrace) leaveReplan(took time.Duration, plan *edgesim.Plan) {
	t.leave(took, plan)
	t.replanWrapNS += time.Since(t.replanEnter).Nanoseconds()
}

func (t *serveTrace) beginReplay() {
	runtime.ReadMemStats(&t.passMS)
	t.mallocs -= t.passMS.Mallocs
}

func (t *serveTrace) endReplay(sys *serveSystem, decisions int) {
	runtime.ReadMemStats(&t.passMS)
	t.mallocs += t.passMS.Mallocs
	t.logBytes = float64(sys.log.bytes) / float64(decisions)
	t.stats = sys.loop.Stats()
}

// finish stops the trace and reports every per-layer metric; heapBytes is
// the live heap one pass's loop holds, measured after the trace stopped.
func (t *serveTrace) finish(decisions, passes float64, replayTime time.Duration, heapBytes float64) (map[string]metric, error) {
	m, err := t.solverMetrics(decisions)
	if err != nil {
		return nil, err
	}
	self := t.submitNS - t.admitNS - t.routeNS - t.replanWrapNS - t.logNS
	st := t.stats
	m["serve.admit_ns"] = metric{float64(t.admitNS) / decisions, "ns"}
	m["serve.route_ns"] = metric{float64(t.routeNS) / decisions, "ns"}
	m["serve.submit_self_ns"] = metric{float64(self) / decisions, "ns"}
	m["serve.log_bytes"] = metric{t.logBytes, "B"}
	m["serve.allocs"] = metric{float64(t.mallocs) / decisions, "count"}
	m["serve.heap_bytes"] = metric{heapBytes, "B"}
	m["serve.replans"] = metric{float64(st.Replans), "count"}
	m["serve.forced_replans"] = metric{float64(st.ForcedReplans), "count"}
	m["serve.rejected_rate_limit"] = metric{float64(st.Rejected[serve.ReasonRate]), "count"}
	m["serve.stale_ms_p50"] = metric{float64(st.StaleQuantileNS(0.5)) / 1e6, "ms"}
	m["serve.stale_ms_p99"] = metric{float64(st.StaleQuantileNS(0.99)) / 1e6, "ms"}
	m["edgesim.slot_ms"] = metric{0, "ms"}
	m["edgesim.batches"] = metric{0, "count"}
	m["traced.slots_per_s"] = metric{passes * serveWindows / replayTime.Seconds(), "1/s"}
	m["traced.decisions_per_s"] = metric{decisions / replayTime.Seconds(), "1/s"}
	return m, nil
}

// tracedAdmission times each admission decision.
type tracedAdmission struct {
	inner serve.AdmissionPolicy
	tr    *serveTrace
}

func (a *tracedAdmission) Name() string { return a.inner.Name() }

func (a *tracedAdmission) Admit(nowNS int64, req serve.Request) (bool, string) {
	start := time.Now()
	ok, reason := a.inner.Admit(nowNS, req)
	a.tr.admitNS += time.Since(start).Nanoseconds()
	return ok, reason
}

// tracedRouter times each routing decision.
type tracedRouter struct {
	inner serve.Router
	tr    *serveTrace
}

func (r *tracedRouter) Name() string { return r.inner.Name() }

func (r *tracedRouter) Route(req serve.Request, snap *serve.Snapshot, up []bool, load []int64) (int, string) {
	start := time.Now()
	k, reason := r.inner.Route(req, snap, up, load)
	r.tr.routeNS += time.Since(start).Nanoseconds()
	return k, reason
}
