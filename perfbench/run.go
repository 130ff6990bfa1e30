package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"plum/internal/core"
	"plum/internal/par"
)

// Result is what one child process reports to the parent: the timings
// of one run, its deterministic outputs, and the checks that failed.
type Result struct {
	Workload string
	Inner    int
	Workers  int
	Traced   bool

	// SetupS and SetupCPU hold the wall and process CPU seconds of each
	// core.New; RunS and RunCPU those of the run from after set-up
	// through the final mesh check. CPU seconds are user+system time of
	// every thread of the process.
	SetupS, SetupCPU []float64
	RunS, RunCPU     float64
	AllocMB          float64
	PeakRSSMB        float64

	// Reports and Owners are the deterministic outputs the parent
	// compares across worker counts and between Cycle and the replica.
	Reports        []core.CycleReport
	Owners         []int32
	ImbalanceFinal float64
	ModeledS       float64

	// Attempted and Failed count cycles; a cycle fails when Cycle
	// returns an error or ends rolled-back or degraded.
	Attempted, Failed int
	// Failures lists the correctness checks that did not hold.
	Failures []string

	// Layers and Spans are filled by the traced replica only.
	Layers map[string]float64 `json:",omitempty"`
	Spans  []Span             `json:",omitempty"`
}

// runUntraced is the end-to-end run: core.New and Framework.Cycle driven
// exactly as cmd/plum drives them, with host time taken only around
// set-up and around the cycles plus the final mesh check.
func runUntraced(w Workload, seed int64, inner, workers int) (Result, error) {
	s := w.DeriveSeeds(seed, inner)
	cfg, err := w.Config(s, workers)
	if err != nil {
		return Result{}, err
	}
	m, sol := w.Input()
	res := Result{Workload: w.Name, Inner: inner, Workers: workers}
	var fw *core.Framework
	for i := 0; i < max(1, w.SetupReps); i++ {
		t0, c0 := time.Now(), cpuSeconds()
		fw, err = core.New(m, sol, cfg)
		res.SetupCPU = append(res.SetupCPU, cpuSeconds()-c0)
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		if err != nil {
			return res, fmt.Errorf("core.New: %w", err)
		}
	}
	// Start every run from the same heap state, whatever set-up left.
	runtime.GC()

	mark := w.Marker(s.Mark, nil)
	alloc0 := heapAllocBytes()
	t0, c0 := time.Now(), cpuSeconds()
	res.runCycles(w.Cycles, func() (core.CycleReport, error) { return fw.Cycle(mark) })
	checkErr := m.Check()
	res.RunCPU = cpuSeconds() - c0
	res.RunS = time.Since(t0).Seconds()
	res.AllocMB = float64(heapAllocBytes()-alloc0) / 1e6
	res.PeakRSSMB, err = peakRSSMB()
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	res.finish(fw, checkErr)
	return res, nil
}

// runCycles runs up to n cycles and records their reports and failures.
// Like cmd/plum it stops at an error or a degraded outcome.
func (r *Result) runCycles(n int, cycle func() (core.CycleReport, error)) {
	for c := 0; c < n; c++ {
		r.Attempted++
		rep, err := cycle()
		if err != nil {
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("cycle %d: %v", c+1, err))
			return
		}
		r.Reports = append(r.Reports, rep)
		if rep.Outcome == core.OutcomeRolledBack || rep.Outcome == core.OutcomeDegraded {
			r.Failed++
		}
		if rep.Outcome == core.OutcomeDegraded {
			return
		}
	}
}

// finish fills the deterministic outputs of a completed run and runs the
// correctness checks on the framework's final state.
func (r *Result) finish(fw *core.Framework, checkErr error) {
	r.Owners = fw.D.Owners()
	r.ImbalanceFinal = par.ImbalanceFactor(aliveLoads(fw))
	r.ModeledS = modeledSeconds(fw.Cfg, r.Reports)
	r.Failures = append(r.Failures, checkState(fw, r.Reports, checkErr)...)
}

// aliveLoads returns the computational loads of the surviving ranks.
func aliveLoads(fw *core.Framework) []int64 {
	full := fw.Loads()
	alive := fw.D.Alive()
	out := make([]int64, len(alive))
	for i, r := range alive {
		out[i] = full[r]
	}
	return out
}

// finalWmax is the heaviest rank load after the last cycle, read from
// the reports alone: the committed or recovered partition's load when
// the last pass changed ownership, the pre-balance load otherwise.
func finalWmax(reps []core.CycleReport) int64 {
	if len(reps) == 0 {
		return 0
	}
	b := reps[len(reps)-1].Balance
	if b.Accepted || b.Outcome == core.OutcomeRecovered {
		return b.WmaxNew
	}
	return b.WmaxOld
}

// modeledSeconds is the machine-model time to solution (README.md gives
// the formula): per cycle the solver time on the loads the cycle ran on,
// the adaption time, and the exposed balance overhead actually paid,
// plus one final solver phase on the final loads.
func modeledSeconds(cfg core.Config, reps []core.CycleReport) float64 {
	var t float64
	for _, r := range reps {
		b := r.Balance
		t += r.SolverTime + r.AdaptTime.Total
		t += max(0, b.RepartitionTime+b.ReassignTime+b.Remap.Total+b.Recovery.Total-b.OverlapTime)
	}
	return t + cfg.Cost.SolverTimeIters(finalWmax(reps), cfg.SolverIters)
}

// checkState verifies the final state of a run: the mesh is valid, the
// dual weights account for every active element, every dual vertex is
// owned by a live rank, and the last report agrees with the loads the
// next solve runs on.
func checkState(fw *core.Framework, reps []core.CycleReport, checkErr error) []string {
	var fails []string
	if checkErr != nil {
		fails = append(fails, fmt.Sprintf("mesh.Check: %v", checkErr))
	}
	if sum, n := fw.G.TotalWcomp(), int64(fw.M.NumActiveElems()); sum != n {
		fails = append(fails, fmt.Sprintf("sum of Wcomp %d != %d active elements", sum, n))
	}
	alive := make([]bool, fw.Cfg.P)
	for _, r := range fw.D.Alive() {
		alive[r] = true
	}
	for v, o := range fw.D.Owners() {
		if o < 0 || int(o) >= fw.Cfg.P || !alive[o] {
			fails = append(fails, fmt.Sprintf("dual vertex %d owned by rank %d, which is not live", v, o))
			break
		}
	}
	if len(reps) > 0 {
		loads := aliveLoads(fw)
		last := reps[len(reps)-1].Balance
		if imb := par.ImbalanceFactor(loads); imb != last.ImbalanceAfter {
			fails = append(fails, fmt.Sprintf("final imbalance %v != last report's ImbalanceAfter %v", imb, last.ImbalanceAfter))
		}
		if wmax := slices.Max(loads); wmax != finalWmax(reps) {
			fails = append(fails, fmt.Sprintf("final Wmax %d != %d read from the last report", wmax, finalWmax(reps)))
		}
	}
	return fails
}

// cpuSeconds is the user+system CPU time of every thread of the process.
// Unlike wall time it leaves out the time the host's hypervisor runs
// other guests on this machine's CPUs.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
