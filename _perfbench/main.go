// Command perfbench is the repository's benchmark. It drives the BIRP slot
// scheduler and the online serving loop through their exported APIs on three
// workloads, checks every output against rules that do not depend on the
// solver, and prints one JSON result line:
//
//	python3 _perfbench/run.py --workload paper-k6 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// run wraps each layer's public interface, takes a CPU profile, and reports
// the per-layer metrics instead. README.md lists the workloads, the metrics
// and which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runFunc runs one workload for the given measured time.
type runFunc func(seed int64, seconds float64, traced bool) (*result, error)

var workloads = map[string]runFunc{
	"paper-k6":    paperK6.run,
	"fleet-k50":   fleetK50.run,
	"serve-dense": runServeDense,
}

func main() {
	name := flag.String("workload", "", "workload: paper-k6, fleet-k50 or serve-dense")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured time of the run in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown workload %q (want paper-k6, fleet-k50 or serve-dense)", *name))
	case *seconds <= 0:
		fail(fmt.Errorf("--seconds %v must be > 0", *seconds))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace %d must be 0 or 1", *trace))
	}
	if err := selfTest(); err != nil {
		fail(fmt.Errorf("self-test of the output checks: %w", err))
	}
	res, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// quantile returns the q-quantile of vals by linear interpolation between
// the closest ranks; vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo >= len(vals)-1 {
		return vals[len(vals)-1]
	}
	return vals[lo] + (pos-float64(lo))*(vals[lo+1]-vals[lo])
}

// liveHeapMB forces collections and returns the live heap in MB (10^6 B).
// The second collection frees what the first moved to sync.Pool victim
// caches. Callers keep the program's objects reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuNow returns the process's CPU time (every thread, user and system) to
// the microsecond. The kernel leaves out time the hypervisor steals from the
// VM's vCPUs, which on a shared host swings wall-clock throughput by more
// than 2× within a minute; see README.md. getrusage stays exact while the
// CPU profiler runs, where CLOCK_PROCESS_CPUTIME_ID falls back to ticks.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail(fmt.Errorf("getrusage: %w", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// deadline reports when a run that starts now has measured long enough.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
