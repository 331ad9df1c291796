package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/models"
	"repro/internal/serve"
)

// serve-dense: a scripted replay through serve.Loop on the 3-edge testbed,
// with thousands of requests per re-optimization window, token-bucket
// admission that sheds part of the peaks, the least-loaded router, and a
// decision log.
const (
	serveApps     = 2
	serveVersions = 3
	// serveWindows re-optimization windows (one slot each) make one script.
	serveWindows = 120
	// serveMean is the mean number of requests per window.
	serveMean = 1300
	// The token bucket admits 150 requests per virtual second with a burst
	// of 300: below the peak windows' rate, above the troughs'.
	serveBucketCap  = 300
	serveBucketRate = 150
	// Edge serveDownEdge is marked down for four windows from the middle of
	// the script on, so routing must steer around it.
	serveDownEdge = 0
	// serveBlock Submit calls are timed together for decide_ms: 128 calls
	// take ~150 µs, so the clock's microsecond steps stay under 1%.
	serveBlock = 128
)

// serveScript is the generated request stream plus the indices at which the
// down segment starts and ends.
type serveScript struct {
	reqs            []serve.Request
	downAt, upAt    int
	slotNS, boundNS int64
}

// genServeScript draws the request stream from seed: a diurnal load level
// per window (period 24 windows) with occasional bursts, a hot region per
// window, app popularity weights, and arrival times spread over the window
// in order.
func genServeScript(seed int64, edges int, slotNS int64, windows int) *serveScript {
	rng := rand.New(rand.NewSource(seed))
	appW := make([]float64, serveApps)
	for i := range appW {
		appW[i] = 0.5 + rng.Float64()
	}
	phase := rng.Float64() * 2 * math.Pi
	s := &serveScript{slotNS: slotNS, boundNS: 2 * slotNS}
	downFrom, downTo := windows/2, windows/2+4
	for w := 0; w < windows; w++ {
		if w == downFrom {
			s.downAt = len(s.reqs)
		}
		if w == downTo {
			s.upAt = len(s.reqs)
		}
		level := 1 + 0.5*math.Sin(2*math.Pi*float64(w)/24+phase)
		if rng.Float64() < 0.05 {
			level *= 1.6
		}
		mean := serveMean * level
		n := int(mean + rng.NormFloat64()*math.Sqrt(mean))
		hot := rng.Intn(edges)
		for q := 0; q < n; q++ {
			region := hot
			if rng.Float64() < 0.5 {
				region = rng.Intn(edges)
			}
			app := 0
			for u := rng.Float64() * sum(appW); app < serveApps-1 && u >= appW[app]; app++ {
				u -= appW[app]
			}
			offset := (float64(q) + rng.Float64()) / float64(n) * float64(slotNS)
			s.reqs = append(s.reqs, serve.Request{
				ID: int64(len(s.reqs)), App: app, Region: region,
				ArriveNS: int64(w)*slotNS + int64(offset),
			})
		}
	}
	return s
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// logSink receives the decision log: it checksums and counts the bytes.
type logSink struct {
	crc   uint32
	bytes int64
	tr    *serveTrace
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *logSink) Write(p []byte) (int, error) {
	var start time.Time
	if s.tr != nil {
		start = time.Now()
	}
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.bytes += int64(len(p))
	if s.tr != nil {
		s.tr.logNS += time.Since(start).Nanoseconds()
	}
	return len(p), nil
}

// timedPlanner wraps the scheduler's Replan to time each re-optimization.
type timedPlanner struct {
	inner    serve.Planner
	replanMS []float64
	spent    time.Duration // total CPU time in Replan
	tr       *serveTrace
}

func (p *timedPlanner) Replan(window [][]int, windowNS int64) (*edgesim.Plan, error) {
	if p.tr != nil {
		p.tr.enterReplan()
	}
	start := cpuNow()
	plan, err := p.inner.Replan(window, windowNS)
	took := cpuNow() - start
	p.spent += took
	p.replanMS = append(p.replanMS, float64(took.Nanoseconds())/1e6)
	if p.tr != nil {
		p.tr.leaveReplan(took, plan)
	}
	return plan, err
}

// serveSystem is what one pass builds: the scheduler behind the planner,
// admission, router and loop.
type serveSystem struct {
	apps    []*models.Application
	loop    *serve.Loop
	log     *logSink
	planner *timedPlanner
}

func buildServe(seed int64, planner *timedPlanner, tr *serveTrace) (*serveSystem, error) {
	c := cluster.Small(cluster.WithSeed(seed))
	apps := models.Catalogue(serveApps, serveVersions)
	var prov core.ParamsProvider = core.NewOnlineTuner(0.04, 0.07)
	if tr != nil {
		prov = tr.provider()
	}
	sched, err := core.New(core.Config{Cluster: c, Apps: apps, Provider: prov, Workers: 1})
	if err != nil {
		return nil, err
	}
	planner.inner = sched
	bucket, err := serve.NewTokenBucket(serveBucketCap, serveBucketRate)
	if err != nil {
		return nil, err
	}
	var adm serve.AdmissionPolicy = bucket
	var rtr serve.Router = serve.LeastLoaded{}
	if tr != nil {
		adm, rtr = &tracedAdmission{inner: adm, tr: tr}, &tracedRouter{inner: rtr, tr: tr}
	}
	sink := &logSink{tr: tr}
	loop, err := serve.NewLoop(serve.Config{
		Apps: serveApps, Edges: c.N(), Planner: planner,
		Admission: adm, Router: rtr,
		ReoptEveryNS: int64(c.SlotMS()) * 1e6,
		Log:          sink,
	})
	if err != nil {
		return nil, err
	}
	return &serveSystem{apps: apps, loop: loop, log: sink, planner: planner}, nil
}

// serveOutcome is what must repeat exactly on every pass.
type serveOutcome struct {
	logCRC    uint32
	logBytes  int64
	admitted  int64
	rejected  int64
	replans   int64
	submitted int64
}

// passCheck collects a checked pass's decisions and scores them.
type passCheck struct {
	apps    []*models.Application
	recs    []decisionRec
	quality servingQuality
}

// replay drives one pass: Submit per request, with the down segment. When
// chk is non-nil every decision is recorded and scored against the
// snapshot it read; when blockMS is non-nil every serveBlock Submit calls
// are timed together, less the synchronous replans among them.
func replay(sys *serveSystem, sc *serveScript, chk *passCheck, blockMS *[]float64, tr *serveTrace) (serveOutcome, error) {
	loop := sys.loop
	up := true
	blockStart, replanStart := cpuNow(), sys.planner.spent
	for i, req := range sc.reqs {
		switch i {
		case sc.downAt:
			loop.SetEdgeDown(serveDownEdge, true)
			up = false
		case sc.upAt:
			loop.SetEdgeDown(serveDownEdge, false)
			up = true
		}
		var start time.Time
		if tr != nil {
			start = time.Now()
		}
		d, err := loop.Submit(req)
		if tr != nil {
			tr.submitNS += time.Since(start).Nanoseconds()
		}
		if err != nil {
			return serveOutcome{submitted: int64(i + 1)}, fmt.Errorf("request %d: %w", i, err)
		}
		if blockMS != nil && (i+1)%serveBlock == 0 {
			now := cpuNow()
			took := now - blockStart - (sys.planner.spent - replanStart)
			*blockMS = append(*blockMS, float64(took.Nanoseconds())/1e6/serveBlock)
			blockStart, replanStart = now, sys.planner.spent
		}
		if chk != nil {
			// Replay is single-threaded, so the loop still holds the
			// snapshot this decision read.
			snap := loop.Snapshot()
			if snap.ID != d.SnapshotID {
				return serveOutcome{}, fmt.Errorf("request %d read snapshot %d, loop holds %d", i, d.SnapshotID, snap.ID)
			}
			mask := uint64(1)<<len(snap.CapPerSlot) - 1
			if !up {
				mask &^= 1 << serveDownEdge
			}
			chk.recs = append(chk.recs, decisionRec{
				ns: req.ArriveNS, admitted: d.Admitted, edge: d.Edge,
				upMask: mask, caps: snap.CapPerSlot, staleNS: d.StaleNS,
			})
			chk.quality.note(chk.apps, req, d, snap.Plan)
		}
	}
	if err := loop.Flush(); err != nil {
		return serveOutcome{}, err
	}
	st := loop.Stats()
	return serveOutcome{
		logCRC: sys.log.crc, logBytes: sys.log.bytes,
		admitted: st.Admitted, rejected: st.RejectedTotal(),
		replans: st.Replans, submitted: st.Submitted,
	}, nil
}

// servingQuality scores the checked pass from the snapshots its decisions
// read: loss per request (an admitted request on an edge whose plan deploys
// its app gets that deployment mix's request-weighted loss; a rejected
// request, or one routed to an edge without its app, gets the app's worst
// loss) and goodput (admitted requests on an edge deploying their app).
type servingQuality struct {
	loss    float64
	goodput int
}

func (q *servingQuality) note(apps []*models.Application, req serve.Request, d serve.Decision, plan *edgesim.Plan) {
	worst := 0.0
	for _, m := range apps[req.App].Models {
		worst = max(worst, m.Loss)
	}
	if !d.Admitted || plan == nil {
		q.loss += worst
		return
	}
	var loss float64
	n := 0
	for _, dep := range plan.Deployments {
		if dep.App == req.App && dep.Edge == d.Edge && dep.Requests > 0 {
			loss += apps[dep.App].Models[dep.Version].Loss * float64(dep.Requests)
			n += dep.Requests
		}
	}
	if n == 0 {
		q.loss += worst
		return
	}
	q.loss += loss / float64(n)
	q.goodput++
}

// checkPass replays the script once with every decision recorded, checked
// and scored.
func checkPass(seed int64, sc *serveScript) (serveOutcome, *passCheck, []string, error) {
	sys, err := buildServe(seed, &timedPlanner{}, nil)
	if err != nil {
		return serveOutcome{}, nil, nil, err
	}
	chk := &passCheck{apps: sys.apps, recs: make([]decisionRec, 0, len(sc.reqs))}
	out, err := replay(sys, sc, chk, nil, nil)
	if err != nil {
		return out, nil, nil, err
	}
	problems := checkDecisions(chk.recs, serveLimits{bucketCap: serveBucketCap, bucketRate: serveBucketRate, staleNS: sc.boundNS})
	problems = append(problems, checkAccounting(len(sc.reqs), out.submitted, out.admitted, out.rejected, chk.recs)...)
	return out, chk, problems, nil
}

// heapPerDecision replays the script once more and returns the live heap
// the loop and its planner hold afterwards, per decision.
func heapPerDecision(seed int64, sc *serveScript) (float64, error) {
	base := liveHeapMB()
	sys, err := buildServe(seed, &timedPlanner{}, nil)
	if err != nil {
		return 0, err
	}
	if _, err := replay(sys, sc, nil, nil, nil); err != nil {
		return 0, err
	}
	grown := liveHeapMB() - base
	runtime.KeepAlive(sys)
	return grown * 1e6 / float64(len(sc.reqs)), nil
}

func runServeDense(seed int64, seconds float64, traced bool) (*result, error) {
	c := cluster.Small(cluster.WithSeed(seed))
	sc := genServeScript(seed, c.N(), int64(c.SlotMS())*1e6, serveWindows)
	ref, chk, problems, err := checkPass(seed, sc)
	if err != nil {
		return nil, err
	}
	quality := chk.quality
	chk = nil
	var tr *serveTrace
	if traced {
		tr = newServeTrace()
		if err := tr.start(); err != nil {
			return nil, err
		}
	}
	res := &result{}
	planner := &timedPlanner{tr: tr}
	var blockMS, setups []float64
	blocks := &blockMS
	if traced {
		blocks = nil
	}
	var replayTime time.Duration
	var sys *serveSystem
	passes := 0
	for end := deadline(seconds); passes == 0 || time.Now().Before(end); passes++ {
		bootstrap := len(planner.replanMS)
		runtime.GC() // as for the scheduler workloads' passes
		start := cpuNow()
		sys, err = buildServe(seed, planner, tr)
		setups = append(setups, (cpuNow() - start).Seconds())
		if err != nil {
			return nil, err
		}
		// The bootstrap plan belongs to setup_s, not replan_ms.
		planner.replanMS = planner.replanMS[:bootstrap]
		if tr != nil {
			tr.beginReplay()
		}
		start = cpuNow()
		out, err := replay(sys, sc, nil, blocks, tr)
		replayTime += cpuNow() - start
		res.Attempted += len(sc.reqs)
		if err != nil {
			// The failing request ends the pass; the requests after it
			// were not attempted.
			res.Attempted -= len(sc.reqs) - int(out.submitted)
			res.Failed++
			fmt.Printf("pass failed: %v\n", err)
			continue
		}
		if tr != nil {
			tr.endReplay(sys, len(sc.reqs))
		}
		if out != ref {
			problems = append(problems, fmt.Sprintf("pass %d: outcome %+v differs from the checked pass %+v", passes, out, ref))
		}
	}
	for _, p := range problems {
		fmt.Printf("check failed: %s\n", p)
	}
	res.Correct = len(problems) == 0
	decisions := float64(res.Attempted)
	if traced {
		tr.stop()
		heap, err := heapPerDecision(seed, sc)
		if err != nil {
			return nil, err
		}
		if res.Metrics, err = tr.finish(decisions, float64(passes), replayTime, heap); err != nil {
			return nil, err
		}
		return res, nil
	}
	res.Metrics = map[string]metric{
		"decide_ms_p50":    {quantile(blockMS, 0.5), "ms"},
		"decide_ms_p95":    {quantile(blockMS, 0.95), "ms"},
		"replan_ms_p50":    {quantile(planner.replanMS, 0.5), "ms"},
		"replan_ms_p95":    {quantile(planner.replanMS, 0.95), "ms"},
		"slots_per_s":      {float64(passes*serveWindows) / replayTime.Seconds(), "1/s"},
		"decisions_per_s":  {decisions / replayTime.Seconds(), "1/s"},
		"loss_per_req":     {quality.loss / float64(len(sc.reqs)), "loss"},
		"goodput_per_slot": {float64(quality.goodput) / serveWindows, "req"},
		"setup_s":          {quantile(setups, 0.5), "s"},
	}
	blockMS, planner.replanMS, sc = nil, nil, nil
	res.Metrics["heap_mb"] = metric{liveHeapMB(), "MB"}
	runtime.KeepAlive(sys)
	return res, nil
}
