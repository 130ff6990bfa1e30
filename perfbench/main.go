// Command perfbench is plum's benchmark. It runs one named workload from
// a seed, checks that the outputs are correct, and prints every metric
// by name with its unit; the last line of its output is one JSON object.
//
//	bash perfbench/run.sh --workload repart_heavy --seed 1 --seconds 35 --trace 0
//
// run.sh, started from the repository root, builds this package into
// .bench_build/bin and runs it there.
// With --trace 0 it prints the end-to-end metrics of untraced runs that
// drive core.New and Framework.Cycle as cmd/plum does. With --trace 1 it
// prints the per-layer metrics of a traced replica of Framework.Cycle
// and writes that run's host-time spans to a Chrome trace-event file.
// Every measured run is a child process of its own, so each starts from
// a fresh heap and reports its own peak resident set. README.md lists
// the workloads and defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: repart_heavy, adapt_heavy, faults_sfc")
		seed     = flag.Int64("seed", 1, "benchmark seed; the marking, partitioner and fault-plan seeds derive from it")
		seconds  = flag.Float64("seconds", 35, "measuring time; the runs every seed needs always complete")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics from untraced runs, 1 = per-layer metrics from the traced replica")
		child    = flag.String("child", "", "internal: run one measured child (untraced or traced) and print its result")
		inner    = flag.Int("inner", 0, "internal: inner seed index of a child run")
		workers  = flag.Int("workers", 0, "internal: worker knob of a child run (0 = GOMAXPROCS)")
	)
	flag.Parse()
	w, err := workloadByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *child != "" {
		if err := runChild(w, *child, *seed, *inner, *workers); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("invalid --trace %d (want 0 or 1)", *trace))
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), start: time.Now()}
	var out Output
	if *trace == 1 {
		// Relative to the working directory, which run.sh keeps at the
		// repository root: next to the build, ignored by git.
		out, err = b.traced(filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d.json", w.Name, *seed)))
	} else {
		out, err = b.untraced()
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out.JSON())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runChild performs one measured run and prints its Result as JSON.
func runChild(w Workload, kind string, seed int64, inner, workers int) error {
	var res Result
	var err error
	switch kind {
	case "untraced":
		res, err = runUntraced(w, seed, inner, workers)
	case "traced":
		res, err = runTraced(w, seed, inner, workers)
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// bench drives the child runs of one benchmark invocation.
type bench struct {
	w      Workload
	seed   int64
	budget time.Duration
	start  time.Time
	// last is the duration of the latest child of each kind, to predict
	// whether another one fits in the budget.
	last map[string]time.Duration
}

// spawn runs one child process to completion and decodes its result.
func (b *bench) spawn(kind string, inner, workers int) (Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return Result{}, err
	}
	cmd := exec.Command(exe, "-workload", b.w.Name, "-seed", strconv.FormatInt(b.seed, 10),
		"-child", kind, "-inner", strconv.Itoa(inner), "-workers", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return Result{}, fmt.Errorf("%s child (inner %d, workers %d): %w", kind, inner, workers, err)
	}
	if b.last == nil {
		b.last = map[string]time.Duration{}
	}
	b.last[key(kind, workers)] = time.Since(t0)
	var res Result
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&res); err != nil {
		return Result{}, fmt.Errorf("%s child (inner %d, workers %d): decoding result: %w", kind, inner, workers, err)
	}
	return res, nil
}

// key names a kind of child run in bench.last.
func key(kind string, workers int) string { return fmt.Sprint(kind, workers) }

// fits reports whether one more child of each given kind, each taking as
// long as the latest of its kind, is predicted to end within the budget.
func (b *bench) fits(keys ...string) bool {
	t := time.Since(b.start)
	for _, k := range keys {
		t += b.last[k]
	}
	return t <= b.budget
}

// untraced runs the end-to-end measurement. Every inner seed runs once
// at workers = GOMAXPROCS and the first Serial inner seeds once at
// workers = 1; those runs always complete, so the deterministic metrics
// never depend on the budget. Further runs fill the remaining budget.
func (b *bench) untraced() (Output, error) {
	var wide, serial []Result
	run := func(inner, workers int) error {
		r, err := b.spawn("untraced", inner, workers)
		if err != nil {
			return err
		}
		printRun(r)
		if workers == 1 {
			serial = append(serial, r)
		} else {
			wide = append(wide, r)
		}
		return nil
	}
	for i := 0; i < b.w.Inner; i++ {
		if err := run(i, 0); err != nil {
			return Output{}, err
		}
		if i < b.w.Serial {
			if err := run(i, 1); err != nil {
				return Output{}, err
			}
		}
	}
	for k := 0; b.fits(key("untraced", 0)); k++ {
		if err := run(k%b.w.Inner, 0); err != nil {
			return Output{}, err
		}
		if !b.fits(key("untraced", 1)) {
			break
		}
		if err := run((b.w.Serial+k)%b.w.Inner, 1); err != nil {
			return Output{}, err
		}
	}
	return summarizeUntraced(b.w, b.seed, wide, serial), nil
}

// traced runs pairs of an untraced Cycle run and the traced replica on
// inner seed 0's inputs, at least one pair and more while the budget
// allows. Repeating one input keeps the per-layer counts exact and
// leaves only host noise in the per-layer times.
func (b *bench) traced(spanPath string) (Output, error) {
	var plain, traced []Result
	for len(traced) == 0 || b.fits(key("untraced", 0), key("traced", 0)) {
		u, err := b.spawn("untraced", 0, 0)
		if err != nil {
			return Output{}, err
		}
		t, err := b.spawn("traced", 0, 0)
		if err != nil {
			return Output{}, err
		}
		printRun(u)
		printRun(t)
		plain = append(plain, u)
		traced = append(traced, t)
	}
	out := summarizeTraced(b.w, plain, traced)
	if err := writeSpans(spanPath, traced); err != nil {
		return out, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %s (Chrome trace-event JSON; open in ui.perfetto.dev or chrome://tracing)\n", spanPath)
	return out, nil
}

// Output is one invocation's verdict and metrics.
type Output struct {
	Correct           bool
	Attempted, Failed int
	Metrics           []Metric
}

// JSON is the result line the benchmark prints last.
func (o Output) JSON() map[string]any {
	ms := map[string]any{}
	for _, m := range o.Metrics {
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": o.Correct, "attempted": o.Attempted, "failed": o.Failed, "metrics": ms}
}

func printRun(r Result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	outcomes := make([]string, len(r.Reports))
	for i, rep := range r.Reports {
		outcomes[i] = rep.Outcome.String()
	}
	fmt.Printf("run %-8s inner=%d workers=%d setup=%.3fs (cpu %.3fs) run=%.3fs (cpu %.3fs) alloc=%.0fMB rss=%.0fMB imbalance_final=%.4f modeled=%.4fs outcomes=%v\n",
		kind, r.Inner, r.Workers, median(r.SetupS), median(r.SetupCPU), r.RunS, r.RunCPU, r.AllocMB, r.PeakRSSMB, r.ImbalanceFinal, r.ModeledS, outcomes)
	for _, f := range r.Failures {
		fmt.Printf("  CHECK FAILED: %s\n", f)
	}
}

// summarizeUntraced checks the untraced runs against each other and
// reduces them to the end-to-end metrics.
func summarizeUntraced(w Workload, seed int64, wide, serial []Result) Output {
	out := Output{Correct: true}
	fail := func(format string, args ...any) {
		out.Correct = false
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
	}
	first := map[int]Result{}
	var setups, cpu, cpuW1, wall, wallW1, allocs, rss []float64
	for _, r := range wide {
		if f, ok := first[r.Inner]; ok {
			if err := sameOutputs(f, r, false); err != nil {
				fail("inner %d: two runs at workers=GOMAXPROCS differ: %v", r.Inner, err)
			}
		} else {
			first[r.Inner] = r
		}
		setups = append(setups, r.SetupCPU...)
		cpu = append(cpu, r.RunCPU)
		wall = append(wall, r.RunS)
		allocs = append(allocs, r.AllocMB)
	}
	for _, r := range serial {
		if err := sameOutputs(first[r.Inner], r, true); err != nil {
			fail("inner %d: workers=1 and workers=GOMAXPROCS differ: %v", r.Inner, err)
		}
		cpuW1 = append(cpuW1, r.RunCPU)
		wallW1 = append(wallW1, r.RunS)
	}
	var imb, modeled float64
	for i := 0; i < w.Inner; i++ {
		imb += first[i].ImbalanceFinal / float64(w.Inner)
		modeled += first[i].ModeledS / float64(w.Inner)
	}
	for _, r := range append(slices.Clone(wide), serial...) {
		rss = append(rss, r.PeakRSSMB)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if len(r.Failures) > 0 {
			out.Correct = false
		}
	}
	vals := map[string]float64{
		"setup_s": median(setups), "run_cpu_s": median(cpu), "run_w1_cpu_s": median(cpuW1),
		"alloc_mb": median(allocs), "peak_rss_mb": median(rss),
		"imbalance_final": imb, "modeled_s": modeled,
	}
	for _, d := range endToEnd {
		out.Metrics = append(out.Metrics, Metric{Name: d.Name, Unit: d.Unit, Value: vals[d.Name]})
	}
	fmt.Printf("%s seed runs: %d at workers=%d, %d at workers=1; %d set-up samples\n",
		w.Name, len(wide), runtime.GOMAXPROCS(0), len(serial), len(setups))
	printMetrics(out.Metrics)
	fmt.Printf("wall time (reported, not gated): run_s %.4f s [%s], run_w1_s %.4f s [%s]; whole-cycle speedup run_w1_s/run_s = %.3f (workers 1 vs %d)\n",
		median(wall), quartiles(wall), median(wallW1), quartiles(wallW1), median(wallW1)/median(wall), runtime.GOMAXPROCS(0))
	fmt.Printf("failed cycles: %d of %d attempted (failed_frac %.4f)\n", out.Failed, out.Attempted, float64(out.Failed)/float64(out.Attempted))
	for i := 0; i < w.Inner; i++ {
		s := w.DeriveSeeds(seed, i)
		fmt.Printf("outcome mix, inner %d (config/marking seed %d", i, s.Config)
		if w.Faults != "" {
			fmt.Printf(", fault seed %d", s.Fault)
		}
		var repart, accepted int
		for _, rep := range first[i].Reports {
			if rep.Balance.Repartitioned {
				repart++
			}
			if rep.Balance.Accepted {
				accepted++
			}
		}
		fmt.Printf("): %s; %d of %d repartitions committed a remap; imbalance_final %.4f\n",
			outcomeMix(first[i].Reports), accepted, repart, first[i].ImbalanceFinal)
	}
	return out
}

// summarizeTraced checks every traced replica against its untraced twin
// and reduces the replicas to the per-layer metrics (medians over the
// pairs).
func summarizeTraced(w Workload, plain, traced []Result) Output {
	out := Output{Correct: true}
	per := map[string][]float64{}
	var overhead, runs []float64
	for i := range traced {
		p, t := plain[i], traced[i]
		if err := sameOutputs(p, t, false); err != nil {
			out.Correct = false
			fmt.Printf("CHECK FAILED: inner %d: the traced replica differs from Framework.Cycle: %v\n", t.Inner, err)
		}
		for _, r := range []Result{p, t} {
			out.Attempted += r.Attempted
			out.Failed += r.Failed
			if len(r.Failures) > 0 {
				out.Correct = false
			}
		}
		for k, v := range t.Layers {
			per[k] = append(per[k], v)
		}
		overhead = append(overhead, t.RunS-p.RunS)
		runs = append(runs, t.RunS)
	}
	per["trace.overhead_s"] = []float64{median(overhead)}
	for _, d := range perLayer {
		out.Metrics = append(out.Metrics, Metric{Name: d.Name, Unit: d.Unit, Value: median(per[d.Name])})
	}
	fmt.Printf("%s: %d traced replica runs, each matched against an untraced Cycle run\n", w.Name, len(traced))
	printMetrics(out.Metrics)
	fmt.Printf("tracing overhead: traced run_s - untraced run_s = %+.4fs (median over %d pairs)\n", median(overhead), len(overhead))
	printShares(out.Metrics, median(runs))
	return out
}

// layerShares groups the top-level spans of a cycle by layer; together
// with the cycle's self time they cover the traced run.
var layerShares = []struct {
	layer   string
	metrics []string
}{
	{"solver", []string{"solver.iterate_s", "solver.sync_s"}},
	{"adapt", []string{"adapt.mark_s"}},
	{"par.refine", []string{"par.refine_s"}},
	{"dual", []string{"dual.update_weights_s"}},
	{"ckpt", []string{"ckpt.capture_s"}},
	{"partition", []string{"partition.repartition_s"}},
	{"remap", []string{"remap.reassign_s"}},
	{"par.remap", []string{"par.remap_exec_s", "par.remap.recovery_s"}},
	{"core (self)", []string{"core.cycle.self_s"}},
	{"mesh.check", []string{"mesh.check_s"}},
}

// printShares prints each layer's share of the traced run's wall time.
func printShares(ms []Metric, run float64) {
	val := map[string]float64{}
	for _, m := range ms {
		val[m.Name] = m.Value
	}
	fmt.Printf("layer shares of the traced run_s %.4f s:", run)
	rest := run
	for _, l := range layerShares {
		var s float64
		for _, name := range l.metrics {
			s += val[name]
		}
		rest -= s
		fmt.Printf(" %s %.1f%%", l.layer, 100*s/run)
	}
	fmt.Printf(" other %.1f%%\n", 100*rest/run)
}

func printMetrics(ms []Metric) {
	for _, m := range ms {
		fmt.Printf("  %-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
}

// quartiles formats the first and third quartile of v.
func quartiles(v []float64) string {
	if len(v) < 2 {
		return fmt.Sprintf("n=%d", len(v))
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(p float64) float64 { // linear interpolation between order statistics
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return fmt.Sprintf("n=%d q1 %.4f q3 %.4f", len(s), q(0.25), q(0.75))
}

// median is the middle value (mean of the two middle values), or 0 for
// no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
