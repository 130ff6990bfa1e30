package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"plum/internal/core"
	"plum/internal/fault"
)

// small returns w at reduced scale: the same configuration on a mesh of
// about 6k elements, with two inner seeds.
func small(w Workload) Workload {
	w.Scale = 0.1
	w.Inner = 2
	w.SetupReps = 1
	return w
}

// roundTrip passes r through the JSON encoding a child process uses.
func roundTrip(t *testing.T, r Result) Result {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestReplicaMatchesCycle(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.Name, func(t *testing.T) {
			u, err := runUntraced(w, 1, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(w, 1, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []Result{u, tr} {
				if len(r.Failures) > 0 {
					t.Errorf("traced=%v: checks failed: %v", r.Traced, r.Failures)
				}
			}
			if len(tr.Reports) != w.Cycles {
				t.Fatalf("replica ran %d cycles, want %d", len(tr.Reports), w.Cycles)
			}
			if err := sameOutputs(u, tr, false); err != nil {
				t.Fatalf("replica differs from Framework.Cycle: %v", err)
			}
			if err := sameOutputs(roundTrip(t, u), roundTrip(t, tr), false); err != nil {
				t.Fatalf("after the child encoding: %v", err)
			}
			if w.Faults != "" {
				// The crash-recovery and retrying remap paths must be
				// among the ones compared.
				seen := map[core.BalanceOutcome]bool{}
				for _, rep := range tr.Reports {
					seen[rep.Outcome] = true
				}
				if !seen[core.OutcomeRecovered] || !seen[core.OutcomeRetriedCommitted] {
					t.Errorf("outcomes %s lack a recovery or a retried commit", outcomeMix(tr.Reports))
				}
			}
			if len(tr.Spans) == 0 || tr.Layers["par.refine_s"] <= 0 || tr.Layers["mesh.check_s"] <= 0 {
				t.Errorf("traced run recorded no layer time: %d spans, %v", len(tr.Spans), tr.Layers)
			}
		})
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.Name, func(t *testing.T) {
			a, err := runUntraced(w, 1, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runUntraced(w, 1, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameOutputs(a, b, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSameSeedSameDeterministicMetrics(t *testing.T) {
	w := small(workloads[0])
	a, err := runUntraced(w, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runUntraced(w, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.ImbalanceFinal != b.ImbalanceFinal || a.ModeledS != b.ModeledS {
		t.Errorf("same seed: imbalance_final %v vs %v, modeled_s %v vs %v",
			a.ImbalanceFinal, b.ImbalanceFinal, a.ModeledS, b.ModeledS)
	}
	if err := sameOutputs(a, b, false); err != nil {
		t.Error(err)
	}
}

func TestSeedDerivation(t *testing.T) {
	w, err := workloadByName("faults_sfc")
	if err != nil {
		t.Fatal(err)
	}
	// The default seed reproduces cmd/plum's defaults and the
	// `-faults seed=7` example.
	if got := w.DeriveSeeds(1, 0); got != (Seeds{Config: 1, Mark: 1, Fault: 7}) {
		t.Errorf("seed 1 derives %+v", got)
	}
	seen := map[Seeds]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < w.Inner; i++ {
			s := w.DeriveSeeds(seed, i)
			if seen[s] {
				t.Errorf("seed %d inner %d repeats %+v", seed, i, s)
			}
			seen[s] = true
		}
	}
}

// schedule samples a fault plan's message fates and rank crashes.
func schedule(p *fault.Plan) []int {
	var out []int
	for cycle := 0; cycle < 4; cycle++ {
		for src := 0; src < 8; src++ {
			for dst := 0; dst < 8; dst++ {
				out = append(out, int(p.Fate(fault.StageRemap, cycle, src, dst, 0)))
			}
			if p.Crashed(fault.StageRemap, cycle, src) {
				out = append(out, -1-src)
			}
		}
	}
	return out
}

func TestSeedChangesFaultSchedule(t *testing.T) {
	w, err := workloadByName("faults_sfc")
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = "rate=0.3,kinds=crash+drop+corrupt" // dense enough to compare
	cfgA, err := w.Config(w.DeriveSeeds(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := w.Config(w.DeriveSeeds(2, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := w.Config(w.DeriveSeeds(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(schedule(cfgA.Faults), schedule(cfgB.Faults)) {
		t.Error("seeds 1 and 2 give the same fault schedule")
	}
	if !reflect.DeepEqual(schedule(cfgA.Faults), schedule(again.Faults)) {
		t.Error("seed 1 gives two different fault schedules")
	}
}

// benchmarkFile is the schema part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(section string, code []Metric, file []struct{ Name, Unit string }) {
		units := map[string]string{}
		for _, m := range file {
			units[m.Name] = m.Unit
		}
		for _, m := range code {
			if !valid.MatchString(m.Name) {
				t.Errorf("%s metric %q has an invalid name", section, m.Name)
			}
			if u, ok := units[m.Name]; !ok {
				t.Errorf("%s metric %q is missing from BENCHMARK.json", section, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", section, m.Name, m.Unit, u)
			}
		}
		if len(code) != len(file) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", section, len(code), len(file))
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}

	// The traced run reports exactly the per-layer metrics.
	tr, err := runTraced(small(workloads[2]), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name := range tr.Layers {
		found := false
		for _, m := range perLayer {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("traced run reports %q, which per_layer does not list", name)
		}
	}
}
