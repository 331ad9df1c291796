package main

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/models"
	"repro/internal/trace"
)

// selfTest shows that no output check is vacuous: each check passes on real
// output and fails on a corrupted copy of it.
func selfTest() error {
	if err := selfTestSched(); err != nil {
		return err
	}
	return selfTestServe()
}

// corrupting hands the simulator a damaged copy of one slot's plan.
type corrupting struct {
	edgesim.Scheduler
	slot   int
	damage func(*edgesim.Plan)
}

func (c *corrupting) Decide(t int, arrivals [][]int) (*edgesim.Plan, error) {
	plan, err := c.Scheduler.Decide(t, arrivals)
	if err != nil || t != c.slot {
		return plan, err
	}
	bad := *plan
	bad.Deployments = edgesim.CloneDeployments(plan.Deployments)
	bad.Transfers = append([]edgesim.Transfer(nil), plan.Transfers...)
	c.damage(&bad)
	return &bad, nil
}

// smallSim runs four slots of BIRP on the 3-edge testbed through strict
// edgesim, with one slot's plan damaged when damage is non-nil.
func smallSim(damage func(*edgesim.Plan)) (*edgesim.Results, []*edgesim.Plan, error) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	tr, err := trace.Generate(trace.Config{Apps: 1, Edges: c.N(), Slots: 4, Seed: 3, MeanPerSlot: 95, Imbalance: 0.8})
	if err != nil {
		return nil, nil, err
	}
	sched, err := core.New(core.Config{Cluster: c, Apps: apps, Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	sim, err := edgesim.New(edgesim.Config{Cluster: c, Apps: apps, Seed: 3, Strict: true})
	if err != nil {
		return nil, nil, err
	}
	keep := &keepPlans{Scheduler: sched}
	var s edgesim.Scheduler = keep
	if damage != nil {
		s = &corrupting{Scheduler: keep, slot: 2, damage: damage}
	}
	res, err := sim.Run(s, tr.R)
	return res, keep.plans, err
}

// keepPlans records every plan the scheduler returns.
type keepPlans struct {
	edgesim.Scheduler
	plans []*edgesim.Plan
}

func (k *keepPlans) Decide(t int, arrivals [][]int) (*edgesim.Plan, error) {
	plan, err := k.Scheduler.Decide(t, arrivals)
	if err == nil {
		k.plans = append(k.plans, plan)
	}
	return plan, err
}

func selfTestSched() error {
	res, plans, err := smallSim(nil)
	if err != nil {
		return fmt.Errorf("clean run rejected: %w", err)
	}
	// Strict edgesim: a broken conservation count and an over-budget edge.
	damages := []struct {
		name, want string
		damage     func(*edgesim.Plan)
	}{
		{"broken conservation count", "conservation", func(p *edgesim.Plan) {
			p.Deployments[0].Requests++
			p.Deployments[0].BatchSizes = append(p.Deployments[0].BatchSizes, 1)
		}},
		{"over-budget edge", "memory", func(p *edgesim.Plan) {
			p.Deployments = append(p.Deployments, edgesim.Deployment{App: 0, Version: 2, Edge: 0, BatchSizes: []int{100000}})
		}},
	}
	for _, d := range damages {
		_, _, err := smallSim(d.damage)
		if err == nil || !strings.Contains(err.Error(), d.want) {
			return fmt.Errorf("strict edgesim accepted a plan with a %s (err %v)", d.name, err)
		}
	}

	// The benchmark's own pass checks.
	apps := models.Catalogue(1, 3)
	good := passOutcome{served: res.Served, dropped: res.Dropped, requests: res.Served + res.Dropped,
		goodput: len(res.Completion) - res.Failures, loss: res.Loss.Total()}
	if p := checkSchedOutcome(good, apps); len(p) > 0 {
		return fmt.Errorf("pass checks reject a clean run: %v", p)
	}
	_, hi := lossRange(apps)
	for name, bad := range map[string]passOutcome{
		"a broken conservation count": {served: good.served + 1, dropped: good.dropped, requests: good.requests, goodput: good.goodput, loss: good.loss},
		"a loss above every model's":  {served: good.served, dropped: good.dropped, requests: good.requests, goodput: good.goodput, loss: 1.1 * hi * float64(good.requests)},
		"goodput above the requests":  {served: good.served, dropped: good.dropped, requests: good.requests, goodput: good.requests + 1, loss: good.loss},
	} {
		if len(checkSchedOutcome(bad, apps)) == 0 {
			return fmt.Errorf("pass checks accept %s", name)
		}
	}

	// The plan digest must see a changed batch and a swapped route.
	digest := func(ps []*edgesim.Plan) uint64 {
		d := newPlanDigest()
		for _, p := range ps {
			d.add(p)
		}
		return d.sum()
	}
	base := digest(plans)
	last := *plans[len(plans)-1]
	last.Deployments = edgesim.CloneDeployments(last.Deployments)
	last.Deployments[0].BatchSizes[0]++
	changed := append(append([]*edgesim.Plan(nil), plans[:len(plans)-1]...), &last)
	if digest(changed) == base {
		return fmt.Errorf("plan digest misses a changed batch size")
	}
	swapped := *plans[len(plans)-1]
	swapped.Deployments = edgesim.CloneDeployments(swapped.Deployments)
	swapped.Deployments[0].Edge = (swapped.Deployments[0].Edge + 1) % cluster.Small().N()
	changed[len(changed)-1] = &swapped
	if digest(changed) == base {
		return fmt.Errorf("plan digest misses a swapped route")
	}
	return nil
}

func selfTestServe() error {
	c := cluster.Small(cluster.WithSeed(5))
	sc := genServeScript(5, c.N(), int64(c.SlotMS())*1e6, 12)
	out, chk, problems, err := checkPass(5, sc)
	if err != nil {
		return fmt.Errorf("serve check pass: %w", err)
	}
	if len(problems) > 0 {
		return fmt.Errorf("serve checks reject a clean replay: %v", problems)
	}
	recs := chk.recs
	lim := serveLimits{bucketCap: serveBucketCap, bucketRate: serveBucketRate, staleNS: sc.boundNS}
	if out.rejected == 0 || out.admitted == 0 {
		return fmt.Errorf("self-test replay should both admit and shed (admitted %d, rejected %d)", out.admitted, out.rejected)
	}
	// first is the first admitted decision; swap is the first one admitted
	// while serveDownEdge was down, to an edge with capacity.
	first, swap := -1, -1
	for i, r := range recs {
		if r.admitted && first < 0 {
			first = i
		}
		if r.admitted && r.upMask&(1<<serveDownEdge) == 0 && r.caps[serveDownEdge] > 0 {
			swap = i
			break
		}
	}
	if first < 0 || swap < 0 {
		return fmt.Errorf("self-test replay has no admitted decision during the down segment")
	}
	damaged := func(f func([]decisionRec) []decisionRec) []decisionRec {
		cp := append([]decisionRec(nil), recs...)
		return f(cp)
	}
	cases := map[string][]decisionRec{
		"a route swapped to the down edge": damaged(func(rs []decisionRec) []decisionRec {
			rs[swap].edge = serveDownEdge
			return rs
		}),
		"a route to an edge without capacity": damaged(func(rs []decisionRec) []decisionRec {
			caps := append([]int(nil), rs[first].caps...)
			caps[rs[first].edge] = 0
			rs[first].caps = caps
			return rs
		}),
		"a burst over the token bucket": damaged(func(rs []decisionRec) []decisionRec {
			burst := make([]decisionRec, serveBucketCap+2)
			for i := range burst {
				burst[i] = rs[first]
			}
			return append(append(rs[:first:first], burst...), rs[first:]...)
		}),
		"a decision over the staleness bound": damaged(func(rs []decisionRec) []decisionRec {
			rs[len(rs)-1].staleNS = lim.staleNS + 1
			return rs
		}),
	}
	for name, bad := range cases {
		if len(checkDecisions(bad, lim)) == 0 {
			return fmt.Errorf("decision checks accept %s", name)
		}
	}
	if len(checkAccounting(len(sc.reqs), out.submitted, out.admitted+1, out.rejected, recs)) == 0 {
		return fmt.Errorf("accounting check accepts a broken admitted count")
	}
	return nil
}
