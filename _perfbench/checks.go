package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"repro/internal/edgesim"
	"repro/internal/models"
)

// planDigest hashes a sequence of plans: every deployment (with its batch
// sizes), transfer, drop count and preload, in plan order. Two passes over
// the same inputs must produce the same digest.
type planDigest struct {
	h   hash.Hash64
	buf []byte
}

func newPlanDigest() *planDigest { return &planDigest{h: fnv.New64a()} }

func (d *planDigest) ints(vs ...int) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	}
}

func (d *planDigest) add(p *edgesim.Plan) {
	d.buf = d.buf[:0]
	d.ints(len(p.Deployments), len(p.Transfers), len(p.Dropped), len(p.Preloads))
	for _, dep := range p.Deployments {
		d.ints(dep.App, dep.Version, dep.Edge, dep.Requests, len(dep.BatchSizes))
		d.ints(dep.BatchSizes...)
	}
	for _, tr := range p.Transfers {
		d.ints(tr.App, tr.From, tr.To, tr.Count)
	}
	for _, row := range p.Dropped {
		d.ints(len(row))
		d.ints(row...)
	}
	for _, pl := range p.Preloads {
		d.ints(pl.App, pl.Version, pl.Edge)
	}
	d.h.Write(d.buf)
}

func (d *planDigest) sum() uint64 { return d.h.Sum64() }

// lossRange returns the smallest and largest model loss in the catalogue.
func lossRange(apps []*models.Application) (lo, hi float64) {
	lo, hi = apps[0].Models[0].Loss, apps[0].Models[0].Loss
	for _, a := range apps {
		for _, m := range a.Models {
			lo, hi = min(lo, m.Loss), max(hi, m.Loss)
		}
	}
	return lo, hi
}

// checkSchedOutcome applies the solver-independent checks to one pass of a
// scheduler workload. Strict edgesim has already validated every plan
// against Eq. 3–9; here every generated request must be served or dropped
// exactly once, and the mean loss per request must lie within the
// catalogue's model losses.
func checkSchedOutcome(o passOutcome, apps []*models.Application) []string {
	if o.failed {
		return nil // a failed pass is counted in failed, not checked
	}
	var problems []string
	if o.served+o.dropped != o.requests {
		problems = append(problems, fmt.Sprintf("served %d + dropped %d != %d generated requests", o.served, o.dropped, o.requests))
	}
	if o.requests > 0 {
		lo, hi := lossRange(apps)
		if per := o.loss / float64(o.requests); per < lo || per > hi {
			problems = append(problems, fmt.Sprintf("loss per request %.6g outside the catalogue's [%.6g, %.6g]", per, lo, hi))
		}
	}
	if o.goodput < 0 || o.goodput > o.served+o.dropped {
		problems = append(problems, fmt.Sprintf("goodput %d outside [0, %d]", o.goodput, o.served+o.dropped))
	}
	return problems
}

// decisionRec is one decision of the serving loop as the checks see it: when
// it was made, whether it was admitted and where to, which edges were up,
// the per-edge capacity of the snapshot it read, and its staleness.
type decisionRec struct {
	ns       int64
	admitted bool
	edge     int
	upMask   uint64 // bit k set when edge k was up
	caps     []int  // the snapshot's CapPerSlot, shared, not copied
	staleNS  int64
}

// serveLimits are the rules a decision stream must obey.
type serveLimits struct {
	bucketCap  float64 // token-bucket burst capacity
	bucketRate float64 // tokens per virtual second
	staleNS    int64   // staleness bound
}

// checkDecisions checks a decision stream: every admitted request goes to
// an up edge with capacity in its snapshot, no decision exceeds the
// staleness bound, and the admitted count over every interval [t_j, t_i]
// of the stream stays within cap + rate·(t_i − t_j).
func checkDecisions(recs []decisionRec, lim serveLimits) []string {
	var problems []string
	note := func(format string, args ...any) {
		if len(problems) < 5 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	// Over [t_j, t_i]: A_i − A_{j−1} ≤ cap + rate·(t_i − t_j), i.e.
	// A_i − rate·t_i ≤ cap + min_{j≤i} (A_{j−1} − rate·t_j).
	admitted := 0.0
	lowest := 0.0
	for i, r := range recs {
		secs := float64(r.ns) / 1e9
		if v := admitted - lim.bucketRate*secs; i == 0 || v < lowest {
			lowest = v
		}
		if r.admitted {
			admitted++
			if r.edge < 0 || r.edge >= len(r.caps) || r.upMask&(1<<r.edge) == 0 || r.caps[r.edge] <= 0 {
				note("decision %d admitted to edge %d, which was down or had no capacity", i, r.edge)
			}
		}
		if excess := admitted - lim.bucketRate*secs - lim.bucketCap - lowest; excess > 1e-6 {
			note("decision %d: admissions exceed the token bucket by %.3f", i, excess)
		}
		if r.staleNS > lim.staleNS {
			note("decision %d: staleness %d ns over the bound %d ns", i, r.staleNS, lim.staleNS)
		}
	}
	return problems
}

// checkAccounting checks the loop's counters against the script and the
// decisions it returned.
func checkAccounting(scriptLen int, submitted, admitted, rejected int64, recs []decisionRec) []string {
	var problems []string
	if submitted != int64(scriptLen) || admitted+rejected != submitted {
		problems = append(problems, fmt.Sprintf("submitted %d, admitted %d + rejected %d, script %d", submitted, admitted, rejected, scriptLen))
	}
	seen := int64(0)
	for _, r := range recs {
		if r.admitted {
			seen++
		}
	}
	if len(recs) != scriptLen || seen != admitted {
		problems = append(problems, fmt.Sprintf("%d decisions with %d admitted, counters say %d admitted", len(recs), seen, admitted))
	}
	return problems
}
