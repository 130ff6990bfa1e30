package main

import (
	"fmt"
	"math"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/solver"
)

// Workload is one benchmark input: a cmd/plum configuration on the
// generated rotor-disk mesh, run for a fixed number of cycles.
type Workload struct {
	Name string
	// P, F, Cycles, Strategy, Method, Refiner, Exchange, NodeSize,
	// Overlap, Checkpoint, Faults, Retries mirror the cmd/plum flags of
	// the same names. Faults is the plan without its seed, which the
	// benchmark seed supplies.
	P, F       int
	Cycles     int
	Strategy   adapt.Strategy
	Method     partition.Method
	Refiner    string
	Exchange   string
	NodeSize   int
	Overlap    bool
	Checkpoint bool
	Faults     string
	Retries    int
	// Scale shrinks the mesh like cmd/plum -scale; 1 is the paper's 61k
	// elements. Tests run the same shapes at a reduced scale.
	Scale float64
	// Inner is the number of derived input seeds one benchmark seed
	// covers. The deterministic metrics are means over them, because the
	// partitioner seed alone moves repart_heavy's final imbalance between
	// about 4 and 9 (see README.md).
	Inner int
	// Serial is how many inner seeds always also run at workers = 1.
	Serial int
	// SetupReps is how many times each untraced child times core.New;
	// workloads with few children per run take more set-up samples.
	SetupReps int
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []Workload{
	{
		Name: "repart_heavy", P: 64, F: 1, Cycles: 3, Strategy: adapt.Local1,
		Method: partition.MethodMultilevel, Scale: 1, Inner: 8, Serial: 3, SetupReps: 1,
	},
	{
		Name: "adapt_heavy", P: 8, F: 1, Cycles: 2, Strategy: adapt.Random,
		Method: partition.MethodMultilevel, Scale: 1, Inner: 2, Serial: 1, SetupReps: 3,
	},
	{
		// The refiner is named because the adaptive default picks band-FM
		// at two workers and classic FM at one, which would give the two
		// sides of the determinism check different partitions.
		Name: "faults_sfc", P: 64, F: 1, Cycles: 4, Strategy: adapt.Local1,
		Method: partition.MethodHilbertSFC, Refiner: "bandfm",
		Exchange: "hierarchical", NodeSize: 8, Overlap: true, Checkpoint: true,
		Faults: "rate=0.01,kinds=crash+drop+corrupt", Retries: 3,
		Scale: 1, Inner: 6, Serial: 3, SetupReps: 1,
	},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Seeds are the inputs derived from one benchmark seed and one inner
// index.
type Seeds struct {
	// Config is core.Config.Seed (the multilevel matching order).
	Config int64
	// Mark is the marking seed (used by the random strategy).
	Mark int64
	// Fault is the fault-plan seed.
	Fault int64
}

// faultSeedOffset makes the default benchmark seed 1 reproduce the
// fault schedule of `plum -faults seed=7`, the example the CLI
// documentation uses.
const faultSeedOffset = 6

// DeriveSeeds maps (benchmark seed, inner index) to the run's seeds.
// Benchmark seed s covers the consecutive base seeds (s-1)·Inner+1 …
// s·Inner, so seed 1 starts at base seed 1 — cmd/plum's default.
func (w Workload) DeriveSeeds(seed int64, inner int) Seeds {
	base := (seed-1)*int64(w.Inner) + int64(inner) + 1
	return Seeds{Config: base, Mark: base, Fault: base + faultSeedOffset}
}

// Config builds the core configuration of one run at the given worker
// knob (0 = GOMAXPROCS), exactly as cmd/plum builds it from its flags.
func (w Workload) Config(s Seeds, workers int) (core.Config, error) {
	cfg := core.DefaultConfig(w.P)
	cfg.F = w.F
	cfg.Seed = s.Config
	cfg.Workers = workers
	cfg.Overlap = w.Overlap
	cfg.Method = w.Method
	cfg.Refiner = w.Refiner
	cfg.Exchange = w.Exchange
	if w.NodeSize > 1 {
		cfg.Topology = machine.NodeTopology(w.NodeSize)
	}
	if w.Faults != "" {
		plan, err := fault.Parse(fmt.Sprintf("seed=%d,%s", s.Fault, w.Faults))
		if err != nil {
			return cfg, err
		}
		cfg.Faults = plan
		cfg.Retry = fault.Budget(w.Retries)
	}
	cfg.Checkpoint = w.Checkpoint
	return cfg, nil
}

// Input generates the mesh and the proxy solver of one run: the
// rotor-disk mesh with the blade-tip feature of cmd/plum. It is input
// generation and is never timed.
func (w Workload) Input() (*mesh.Mesh, *solver.Solver) {
	rp := meshgen.DefaultRotor()
	if w.Scale != 1 {
		s := math.Cbrt(w.Scale)
		rp.NR = max(2, int(float64(rp.NR)*s))
		rp.NTheta = max(2, int(float64(rp.NTheta)*s))
		rp.NZ = max(2, int(float64(rp.NZ)*s))
	}
	m := meshgen.RotorDisk(rp)
	r := (rp.R0 + rp.R1) / 2
	th := rp.Sweep / 2
	feature := geom.Vec3{X: r * math.Cos(th), Y: r * math.Sin(th)}
	return m, solver.New(m, solver.GaussianPulse(feature, 0.3))
}

// Marker returns the edge-marking function cmd/plum passes to Cycle.
// It reports the number of edges marked through marked when non-nil.
func (w Workload) Marker(seed int64, marked *int64) func(*adapt.Adaptor) {
	return func(a *adapt.Adaptor) {
		n := a.MarkStrategyRefine(w.Strategy, seed)
		if marked != nil {
			*marked += int64(n)
		}
	}
}
