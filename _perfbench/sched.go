package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/miqp"
	"repro/internal/models"
	"repro/internal/trace"
)

// schedWorkload is a closed slot loop: edgesim (strict mode) feeds each
// slot's arrivals to a BIRP scheduler, validates and executes the plan, and
// returns the batch feedback to the online tuner.
//
// A round runs `systems` independent systems one after another, each with
// its own seed derived from --seed: its own trace, bandwidth draws and
// execution noise (and, on fleet-k50, its own fleet). Which slots are
// hardest and how large the solver's arenas grow depend on the input, so
// one run pools several inputs to keep the tail latency, loss and heap
// figures from resting on a single trace. Every round repeats the same
// systems.
type schedWorkload struct {
	// fleet is the cluster.Scaled size; 0 means the paper's 6-edge testbed.
	fleet int
	// domainSize > 0 turns on hierarchical scheduling.
	domainSize int
	workers    int
	slots      int
	systems    int
}

var (
	// paperK6 is the fig. 7 setting: 6 edges, 5 apps × 5 versions. A trace
	// of 100 slots covers one diurnal day (trace.SlotsPerDay = 96); 24 of
	// them keep heap_mb, which rests on the largest branch & bound tree each
	// scheduler has seen, steady across seeds.
	paperK6 = schedWorkload{workers: 1, slots: 100, systems: 24}
	// fleetK50 is a seeded 50-edge fleet in domains of the default size.
	fleetK50 = schedWorkload{fleet: 50, domainSize: cluster.DefaultDomainSize, workers: 2, slots: 40, systems: 6}
)

// systemSeed derives the seed of system j of a round.
func (w schedWorkload) systemSeed(seed int64, j int) int64 {
	return seed*int64(w.systems) + int64(j)
}

// The fig. 7 catalogue and mean load.
const (
	fig7Apps     = 5
	fig7Versions = 5
	fig7Mean     = 31
)

// schedSystem is everything one pass builds: inputs, scheduler, simulator.
type schedSystem struct {
	apps     []*models.Application
	arrivals [][][]int
	sched    *core.Scheduler
	sim      *edgesim.Sim
}

// build makes the cluster, catalogue and trace from seed and assembles the
// scheduler and simulator; this is what setup_s times.
func (w schedWorkload) build(seed int64, workers int, prov core.ParamsProvider) (*schedSystem, error) {
	c := cluster.Default(cluster.WithSeed(seed))
	if w.fleet > 0 {
		var err error
		if c, err = cluster.Scaled(w.fleet, cluster.WithSeed(seed)); err != nil {
			return nil, err
		}
	}
	apps := models.Catalogue(fig7Apps, fig7Versions)
	tr, err := trace.Generate(trace.Config{
		Apps: len(apps), Edges: c.N(), Slots: w.slots, Seed: seed,
		MeanPerSlot: fig7Mean, Imbalance: 0.8, BurstProb: 0.05, BurstScale: 2,
	})
	if err != nil {
		return nil, err
	}
	if prov == nil {
		prov = core.NewOnlineTuner(0.04, 0.07)
	}
	sched, err := core.New(core.Config{
		Cluster: c, Apps: apps, Provider: prov,
		Workers: workers, DomainSize: w.domainSize,
	})
	if err != nil {
		return nil, err
	}
	sim, err := edgesim.New(edgesim.Config{
		Cluster: c, Apps: apps,
		NoiseSigma: 0.02, SlotNoiseSigma: 0.05, Seed: seed, Strict: true,
	})
	if err != nil {
		return nil, err
	}
	return &schedSystem{apps: apps, arrivals: tr.R, sched: sched, sim: sim}, nil
}

// recorder wraps the scheduler under test: it times each Decide, digests
// every plan, and counts operations.
type recorder struct {
	inner     edgesim.Scheduler
	digest    *planDigest
	decideMS  []float64
	attempted int
	failed    int
	tr        *schedTrace // nil in untraced runs
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) Decide(t int, arrivals [][]int) (*edgesim.Plan, error) {
	if r.tr != nil {
		r.tr.enter()
	}
	start := cpuNow()
	plan, err := r.inner.Decide(t, arrivals)
	took := cpuNow() - start
	r.attempted++
	if err != nil {
		r.failed++
		return nil, err
	}
	r.decideMS = append(r.decideMS, float64(took.Nanoseconds())/1e6)
	r.digest.add(plan)
	if r.tr != nil {
		r.tr.leaveDecide(took, plan)
	}
	return plan, nil
}

func (r *recorder) Observe(t int, fb []edgesim.Feedback) {
	if r.tr != nil {
		r.tr.enterObserve()
	}
	r.inner.Observe(t, fb)
	if r.tr != nil {
		r.tr.leaveObserve(len(fb))
	}
}

// passOutcome is what the checks compare across passes.
type passOutcome struct {
	digest   uint64
	served   int
	dropped  int
	goodput  int
	loss     float64
	requests int
	failed   bool
}

// runPass builds a fresh system and drives it over the whole trace. A
// Decide error or a plan violation (strict edgesim) ends the pass and is
// counted as one failed operation.
func (w schedWorkload) runPass(seed int64, workers int, rec *recorder, tr *schedTrace) (out passOutcome, setup, took time.Duration, sys *schedSystem, err error) {
	var prov core.ParamsProvider
	if tr != nil {
		prov = tr.provider()
	}
	// Every pass starts from a collected heap, so no GC cycle left over
	// from the previous pass runs during this one's setup.
	runtime.GC()
	start := cpuNow()
	sys, err = w.build(seed, workers, prov)
	setup = cpuNow() - start
	if err != nil {
		return out, setup, 0, nil, err
	}
	rec.inner = sys.sched
	rec.digest = newPlanDigest()
	failedBefore := rec.failed
	start = cpuNow()
	res, runErr := sys.sim.Run(rec, sys.arrivals)
	took = cpuNow() - start
	out.requests = sumArrivals(sys.arrivals)
	if runErr != nil {
		// A strict-mode violation follows a Decide that returned without
		// error; charge it to that Decide.
		if rec.failed == failedBefore {
			rec.failed++
		}
		fmt.Printf("pass failed: %v\n", runErr)
		out.failed = true
		return out, setup, took, sys, nil
	}
	out.digest = rec.digest.sum()
	out.served, out.dropped = res.Served, res.Dropped
	out.goodput = len(res.Completion) - res.Failures
	out.loss = res.Loss.Total()
	return out, setup, took, sys, nil
}

// round runs every system once and returns their outcomes, setup times and
// the time spent in Sim.Run; the systems stay reachable for heap_mb.
func (w schedWorkload) round(seed int64, workers int, rec *recorder, tr *schedTrace) ([]passOutcome, []float64, time.Duration, []*schedSystem, error) {
	outs := make([]passOutcome, w.systems)
	setups := make([]float64, w.systems)
	systems := make([]*schedSystem, w.systems)
	var runTime time.Duration
	for j := range outs {
		out, setup, took, sys, err := w.runPass(w.systemSeed(seed, j), workers, rec, tr)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		outs[j], setups[j], systems[j] = out, setup.Seconds(), sys
		runTime += took
	}
	return outs, setups, runTime, systems, nil
}

// run measures the workload: an untimed warm-up pass of the first system,
// then timed rounds until the deadline; the first timed round is the
// reference every later round must repeat exactly. On fleet-k50 the warm-up
// pass runs with Workers: 1, and its plans must equal the timed passes'.
func (w schedWorkload) run(seed int64, seconds float64, traced bool) (*result, error) {
	warm, _, _, _, err := w.runPass(w.systemSeed(seed, 0), 1, &recorder{}, nil)
	if err != nil {
		return nil, err
	}
	var tr *schedTrace
	if traced {
		tr = newSchedTrace()
		if err := tr.start(); err != nil {
			return nil, err
		}
	}
	rec := &recorder{tr: tr}
	var (
		ref      []passOutcome
		systems  []*schedSystem
		problems []string
		setups   []float64
		runTime  time.Duration
		rounds   int
	)
	for end := deadline(seconds); rounds == 0 || time.Now().Before(end); rounds++ {
		outs, setup, took, syss, err := w.round(seed, w.workers, rec, tr)
		if err != nil {
			return nil, err
		}
		systems = syss
		setups = append(setups, setup...)
		runTime += took
		if ref == nil {
			ref = outs
			for j, out := range outs {
				problems = append(problems, checkSchedOutcome(out, syss[j].apps)...)
			}
			if !warm.failed && !ref[0].failed && warm.digest != ref[0].digest {
				problems = append(problems, fmt.Sprintf("Workers: 1 plans differ from Workers: %d plans", w.workers))
			}
		}
		for j := range outs {
			if outs[j] != ref[j] {
				problems = append(problems, fmt.Sprintf("round %d system %d: outcome %+v differs from the first round's %+v", rounds, j, outs[j], ref[j]))
			}
		}
	}
	var refLoss float64
	var refRequests, refGoodput int
	for _, out := range ref {
		refLoss += out.loss
		refRequests += out.requests
		refGoodput += out.goodput
	}
	for _, p := range problems {
		fmt.Printf("check failed: %s\n", p)
	}
	res := &result{Correct: len(problems) == 0, Attempted: rec.attempted, Failed: rec.failed}
	slots := float64(rounds * w.systems * w.slots)
	decided := float64(rounds * refRequests)
	if traced {
		if res.Metrics, err = tr.finish(slots, decided, runTime); err != nil {
			return nil, err
		}
		return res, nil
	}
	var decideTotalMS float64
	for _, ms := range rec.decideMS {
		decideTotalMS += ms
	}
	p50, p95 := quantile(rec.decideMS, 0.5), quantile(rec.decideMS, 0.95)
	rec.decideMS = nil
	heap := retainedMB(systems)
	res.Metrics = map[string]metric{
		"decide_ms_p50":    {p50, "ms"},
		"decide_ms_p95":    {p95, "ms"},
		"replan_ms_p50":    {p50, "ms"},
		"replan_ms_p95":    {p95, "ms"},
		"slots_per_s":      {slots / runTime.Seconds(), "1/s"},
		"decisions_per_s":  {decided / (decideTotalMS / 1e3), "1/s"},
		"loss_per_req":     {refLoss / float64(refRequests), "loss"},
		"goodput_per_slot": {float64(refGoodput) / float64(w.systems*w.slots), "req"},
		"setup_s":          {quantile(setups, 0.5), "s"},
		"heap_mb":          {mean(heap), "MB"},
	}
	return res, nil
}

// retainedMB returns the live heap each system retains, its trace aside:
// the drop in live heap when it is released while the systems after it are
// still reachable.
func retainedMB(systems []*schedSystem) []float64 {
	for _, sys := range systems {
		sys.arrivals = nil
	}
	out := make([]float64, len(systems))
	before := liveHeapMB()
	for j := range systems {
		systems[j] = nil
		after := liveHeapMB()
		out[j] = before - after
		before = after
	}
	return out
}

func mean(v []float64) float64 { return sum(v) / float64(len(v)) }

func sumArrivals(arrivals [][][]int) int {
	n := 0
	for _, slot := range arrivals {
		for _, row := range slot {
			for _, v := range row {
				n += v
			}
		}
	}
	return n
}

// solverStats sums the per-plan solver counters; nil plans count nothing.
func solverStats(dst *miqp.Stats, plan *edgesim.Plan) {
	if plan != nil && plan.Solver != nil {
		dst.Add(*plan.Solver)
	}
}
