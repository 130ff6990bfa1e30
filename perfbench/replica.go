package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"plum/internal/adapt"
	"plum/internal/ckpt"
	"plum/internal/core"
	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/par"
	"plum/internal/partition"
	"plum/internal/propagate"
	"plum/internal/refine"
	"plum/internal/remap"
)

// replica rebuilds core.Framework.Cycle from the public calls of each
// module, in the order Cycle makes them, and times every call from
// outside. It keeps the framework's private cycle state itself: the
// cycle counter, the rollback streak, the checkpoint and the cached SFC
// curve order. The run fails unless it ends with the same owners and
// reports as an untraced Cycle run.
type replica struct {
	fw     *core.Framework
	tr     *tracer
	cycles int
	streak int
	ck     *ckpt.Checkpoint
	sfc    *partition.SFCPartitioner
	// n accumulates the counters the reports do not carry.
	n map[string]float64
	// lastPart and lastImbalance describe the most recent repartition.
	lastPart      partition.Assignment
	lastImbalance float64
}

// timedProp wraps the framework's propagation backend to time each
// propagation run. It forwards SetFaults, so the adaption passes charge
// the same modeled retry traffic as the unwrapped backend.
type timedProp struct {
	inner propagate.Propagator
	fa    propagate.FaultAware
	x     *replica
}

func (p timedProp) Name() string { return p.inner.Name() }

func (p timedProp) Run(w propagate.World, frontier []int32, clk *machine.Clock, mdl machine.Model) propagate.Result {
	sp := p.x.tr.begin("propagate.run")
	res := p.inner.Run(w, frontier, clk, mdl)
	p.x.tr.end(sp)
	p.x.n["propagate.visits"] += float64(res.Visits)
	p.x.n["propagate.marked"] += float64(res.Marked)
	return res
}

func (p timedProp) ChargeExchange(clk *machine.Clock, mdl machine.Model, pairs []propagate.PairWords) machine.ExchangeCharge {
	return p.inner.ChargeExchange(clk, mdl, pairs)
}

func (p timedProp) SetFaults(x *fault.ExchangeModel) { p.fa.SetFaults(x) }

// runTraced is the traced run: the same inputs as runUntraced, driven
// through the replica with every layer call recorded as a span.
func runTraced(w Workload, seed int64, inner, workers int) (Result, error) {
	s := w.DeriveSeeds(seed, inner)
	cfg, err := w.Config(s, workers)
	if err != nil {
		return Result{}, err
	}
	m, sol := w.Input()
	res := Result{Workload: w.Name, Inner: inner, Workers: workers, Traced: true}
	t0, c0 := time.Now(), cpuSeconds()
	fw, err := core.New(m, sol, cfg)
	res.SetupCPU = []float64{cpuSeconds() - c0}
	res.SetupS = []float64{time.Since(t0).Seconds()}
	if err != nil {
		return res, fmt.Errorf("core.New: %w", err)
	}
	x := &replica{fw: fw, n: map[string]float64{}}
	if fw.Cfg.Checkpoint {
		x.ck = ckpt.New()
	}
	fa, ok := fw.D.Prop.(propagate.FaultAware)
	if !ok {
		return res, fmt.Errorf("propagator %q is not fault-aware; the timing wrapper could not forward SetFaults", fw.D.Prop.Name())
	}
	fw.D.Prop = timedProp{inner: fw.D.Prop, fa: fa, x: x}
	runtime.GC()

	var marked int64
	mark := w.Marker(s.Mark, &marked)
	gc0 := readGC()
	alloc0 := heapAllocBytes()
	c0 = cpuSeconds()
	x.tr = newTracer()
	res.runCycles(w.Cycles, func() (core.CycleReport, error) { return x.cycle(mark) })
	x.tr.cycle = 0
	sp := x.tr.begin("mesh.check")
	checkErr := m.Check()
	x.tr.end(sp)
	res.RunCPU = cpuSeconds() - c0
	res.RunS = time.Since(x.tr.t0).Seconds()
	res.AllocMB = float64(heapAllocBytes()-alloc0) / 1e6
	gc1 := readGC()
	res.PeakRSSMB, err = peakRSSMB()
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	res.finish(fw, checkErr)

	x.n["adapt.marked_edges"] = float64(marked)
	x.n["runtime.gc_cycles"] = float64(gc1.cycles - gc0.cycles)
	if d := gc1.totalCPU - gc0.totalCPU; d > 0 {
		x.n["runtime.gc_cpu_frac"] = (gc1.gcCPU - gc0.gcCPU) / d
	}
	res.Spans = x.tr.spans
	res.Layers = layerMetrics(x, res)
	return res, nil
}

type gcSample struct {
	cycles          uint64
	gcCPU, totalCPU float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// span runs fn inside a span named name.
func (x *replica) span(name string, fn func()) {
	id := x.tr.begin(name)
	fn()
	x.tr.end(id)
}

// cycle mirrors core.Framework.Cycle.
func (x *replica) cycle(mark func(*adapt.Adaptor)) (core.CycleReport, error) {
	f := x.fw
	var rep core.CycleReport
	x.tr.cycle = x.cycles + 1
	id := x.tr.begin("core.cycle")
	defer x.tr.end(id)
	f.D.FaultCycle = x.cycles
	x.cycles++
	loads := f.Loads()
	rep.SolverTime = f.Cfg.Cost.SolverTimeIters(slices.Max(loads), f.Cfg.SolverIters)
	if f.S != nil {
		x.span("solver.iterate", func() { f.S.Iterate(f.Cfg.SolverIters) })
	}
	x.span("adapt.mark", func() { mark(f.A) })
	x.span("par.refine", func() { rep.Refine, rep.AdaptTime = f.D.ParallelRefine(f.A, f.Cfg.Model) })
	if f.S != nil {
		x.span("solver.sync", f.S.SyncAfterAdaption)
	}
	bal, err := x.balance(rep.SolverTime)
	if err != nil {
		return rep, err
	}
	bal.AdaptOps = rep.AdaptTime.Ops.Total
	bal.AdaptCritOps = rep.AdaptTime.Ops.Crit
	bal.AdaptExecTime = rep.AdaptTime.Ops.Time(f.Cfg.Model)
	rep.Balance = bal
	rep.Outcome = bal.Outcome
	return rep, nil
}

// refiner mirrors the framework's choice of boundary refiner on the SFC
// path.
func (x *replica) refiner() refine.Refiner {
	f := x.fw
	if f.Cfg.Refiner != "" {
		if r, ok := refine.ByName(f.Cfg.Refiner, f.Cfg.Workers); ok {
			return r
		}
	}
	return refine.Default(f.G.N, f.Cfg.Workers)
}

// repartition mirrors the framework's repartition. A graph partitioner
// is one span: its phases (coarsening, initial partition, uncoarsening)
// have no public entry points.
func (x *replica) repartition(k int) (partition.Assignment, partition.Ops) {
	f := x.fw
	id := x.tr.begin("partition.repartition")
	var asg partition.Assignment
	var ops partition.Ops
	if c, ok := f.Cfg.Method.Curve(); !ok {
		var ref refine.Refiner
		if f.Cfg.Refiner != "" {
			ref, _ = refine.ByName(f.Cfg.Refiner, f.Cfg.Workers)
		}
		x.span("partition.graph", func() {
			asg, ops = partition.PartitionCounted(f.G, k, f.Cfg.Method,
				partition.Options{Workers: f.Cfg.Workers, Seed: f.Cfg.Seed, Refiner: ref})
		})
	} else {
		if x.sfc == nil || x.sfc.Curve != c {
			x.span("partition.sfc_order", func() { x.sfc = partition.NewSFCWorkers(f.G, c, f.Cfg.Workers) })
			ops.Total = x.sfc.LastOps
			ops.Crit = x.sfc.LastCritOps
		}
		x.span("partition.sfc_cut", func() { asg = x.sfc.Repartition(f.G, k) })
		ops.Total += x.sfc.LastOps
		ops.Crit += x.sfc.LastCritOps
		x.span("partition.refine", func() { ops.AddMem(x.refiner().Refine(f.G, asg, k, 2)) })
	}
	x.tr.end(id)
	// Quality of the newest partition under the weights it was cut for;
	// taken outside the partition span, the weights change next cycle.
	x.lastImbalance = partition.Imbalance(f.G, asg, k)
	x.lastPart = asg
	x.n["partition.ops"] += float64(ops.Total)
	x.n["partition.crit_ops"] += float64(ops.Crit)
	x.n["partition.refine_ops"] += float64(ops.MemTotal)
	x.n["partition.modeled_s"] += float64(ops.Crit-ops.MemCrit)*f.Cfg.Model.CompOp + float64(ops.MemCrit)*f.Cfg.Model.MemOp
	return asg, ops
}

// reassign builds the similarity matrix and maps the new partitions onto
// the survivors, as the framework does after every repartition.
func (x *replica) reassign(alive []int32, newPart partition.Assignment) (*remap.Similarity, remap.Mapping, int64, error) {
	f := x.fw
	id := x.tr.begin("remap.reassign")
	defer x.tr.end(id)
	sim := remap.Build(x.compactOwners(alive), newPart, f.G.Wremap, len(alive), f.Cfg.F)
	var mp remap.Mapping
	var obj int64
	if f.Cfg.Mapper == core.MapperOptimal {
		mp, obj = sim.Optimal()
	} else {
		mp, obj = sim.Heuristic()
	}
	if err := sim.Validate(mp); err != nil {
		return sim, mp, obj, err
	}
	x.n["remap.ops"] += float64(sim.LastOps)
	x.n["remap.objective"] += float64(obj)
	x.n["remap.similarity_total"] += float64(sim.Total())
	return sim, mp, obj, nil
}

// balance mirrors the framework's balance pipeline with the cycle's
// overlap window.
func (x *replica) balance(window float64) (core.BalanceReport, error) {
	f := x.fw
	var rep core.BalanceReport
	rep.Exchange = f.D.Exchange
	x.span("dual.update_weights", func() { f.G.UpdateWeights(f.M) })
	if x.ck != nil {
		x.span("ckpt.capture", func() {
			full := x.ck.Stats().FullWords
			x.ck.Capture(ckpt.State{Cycle: f.D.FaultCycle, Streak: x.streak,
				Owners: f.D.Owners(), Weights: f.G.Wcomp})
			if x.ck.Stats().FullWords != full {
				x.n["ckpt.full_clones"]++
			}
		})
	}
	alive := f.D.Alive()
	rep.Alive = len(alive)
	loads := aliveLoads(f)
	rep.ImbalanceBefore = par.ImbalanceFactor(loads)
	rep.ImbalanceAfter = rep.ImbalanceBefore
	rep.WmaxOld = slices.Max(loads)
	if rep.ImbalanceBefore <= f.Cfg.ImbalanceThreshold {
		return rep, nil
	}
	rep.Repartitioned = true

	nParts := rep.Alive * f.Cfg.F
	newPart, partOps := x.repartition(nParts)
	rep.RepartitionOps = partOps.Total
	rep.RepartitionCritOps = partOps.Crit
	rep.RefineOps = partOps.MemTotal
	rep.RefineCritOps = partOps.MemCrit
	rep.RepartitionCompTime = float64(partOps.Crit-partOps.MemCrit) * f.Cfg.Model.CompOp
	rep.RepartitionMemTime = float64(partOps.MemCrit) * f.Cfg.Model.MemOp
	rep.RepartitionTime = rep.RepartitionCompTime + rep.RepartitionMemTime

	sim, mp, obj, err := x.reassign(alive, newPart)
	rep.Objective = obj
	if err != nil {
		return rep, err
	}
	rep.ReassignOps = sim.LastOps
	rep.ReassignTime = float64(sim.LastOps) * f.Cfg.Model.MemOp

	newLoads := make([]int64, rep.Alive)
	for v, p := range newPart {
		newLoads[mp[p]] += f.G.Wcomp[v]
	}
	rep.WmaxNew = slices.Max(newLoads)
	rep.ImbalanceAfter = par.ImbalanceFactor(newLoads)

	x.span("remap.move_stats", func() { rep.MoveC, rep.MoveN = sim.MoveStats(mp) })
	remapOps := par.PredictRemapOps(len(f.M.Elems), rep.MoveC, rep.MoveN, f.Cfg.P, f.Cfg.Workers)
	rep.RemapOps = remapOps.Total
	rep.RemapCritOps = remapOps.Crit
	rep.RemapExecTime = remapOps.Time(f.Cfg.Model)
	rep.Gain = f.Cfg.Cost.Gain(rep.WmaxOld, rep.WmaxNew)
	pipeline := rep.RepartitionTime + rep.ReassignTime + rep.RemapExecTime
	rep.CostFull = redistCost(f.Cfg.Cost, f.Cfg.Model, f.D.Exchange, rep.Alive, rep.MoveC, rep.MoveN) + pipeline
	if f.Cfg.Overlap {
		rep.OverlapTime = min(window, pipeline)
	}
	rep.Cost = rep.CostFull - rep.OverlapTime
	if rep.Gain <= rep.Cost {
		rep.ImbalanceAfter = rep.ImbalanceBefore
		return rep, nil
	}
	rep.Accepted = true

	newOwner := make([]int32, len(newPart))
	for v, p := range newPart {
		newOwner[v] = alive[mp[p]]
	}
	var res par.RemapResult
	x.span("par.remap_exec", func() {
		if f.Cfg.Overlap {
			res, err = f.D.ExecuteRemapStreaming(newOwner, f.Cfg.Model)
		} else {
			res, err = f.D.ExecuteRemap(newOwner, f.Cfg.Model)
		}
	})
	if err != nil {
		var re *par.RemapError
		if errors.As(err, &re) {
			switch {
			case re.Failure == par.FailCrash:
				return rep, x.recoverCrash(&rep, re)
			case re.Failure == par.FailTimeout:
				return rep, err
			case re.RolledBack:
				rep.Accepted = false
				rep.ImbalanceAfter = rep.ImbalanceBefore
				rep.FaultDetail = re.Error()
				x.streak++
				rep.Outcome = core.OutcomeRolledBack
				if x.streak >= core.DegradedStreak {
					rep.Outcome = core.OutcomeDegraded
				}
				return rep, nil
			}
		}
		return rep, err
	}
	x.streak = 0
	if res.Retries > 0 || res.WindowRetries > 0 {
		rep.Outcome = core.OutcomeRetriedCommitted
	}
	rep.Remap = res
	rep.RemapPeakWords = res.PeakWords
	rep.RemapSetups = res.Setups
	rep.RemapSetupTime = res.SetupTime
	return rep, nil
}

// recoverCrash mirrors the framework's survivor recovery after a rank
// crash mid-remap.
func (x *replica) recoverCrash(rep *core.BalanceReport, re *par.RemapError) error {
	f := x.fw
	id := x.tr.begin("core.recover")
	defer x.tr.end(id)
	rep.Accepted = false
	rep.Outcome = core.OutcomeRecovered
	rep.FaultDetail = re.Error()
	rep.CrashedRanks = append([]int(nil), re.Crashed...)
	if x.ck != nil {
		x.span("ckpt.restore", func() {
			if st, ok := x.ck.Restore(); ok {
				f.D.SetOwners(st.Owners)
				x.streak = st.Streak
			}
		})
	}
	f.D.MarkDead(re.Crashed)
	alive := f.D.Alive()
	s := len(alive)
	if s < 1 {
		return fmt.Errorf("core: no surviving ranks after crash of %v", re.Crashed)
	}
	rep.Alive = s

	newPart, _ := x.repartition(s * f.Cfg.F)
	_, mp, _, err := x.reassign(alive, newPart)
	if err != nil {
		return err
	}
	newOwner := make([]int32, len(newPart))
	for v, p := range newPart {
		newOwner[v] = alive[mp[p]]
	}
	var res par.RemapResult
	x.span("par.remap.recovery", func() { res, err = f.D.ExecuteRemapRecovery(newOwner, f.Cfg.Model) })
	if err != nil {
		return fmt.Errorf("core: survivor recovery after crash of %v failed: %w", re.Crashed, err)
	}
	rep.Recovery = res
	x.streak = 0

	loads := aliveLoads(f)
	rep.WmaxNew = slices.Max(loads)
	rep.ImbalanceAfter = par.ImbalanceFactor(loads)
	return nil
}

// compactOwners mirrors the framework's owner compaction into the
// survivor index space (the identity while every rank is alive).
func (x *replica) compactOwners(alive []int32) []int32 {
	f := x.fw
	oldProc := f.D.Owners()
	if len(alive) == f.Cfg.P {
		return oldProc
	}
	compact := make([]int32, f.Cfg.P)
	for i := range compact {
		compact[i] = -1
	}
	for i, r := range alive {
		compact[r] = int32(i)
	}
	for v, o := range oldProc {
		oldProc[v] = compact[o]
	}
	return oldProc
}

// redistCost re-derives the framework's wire-redistribution cost term,
// which has no public entry point: remap.CostModel.RedistCost prices the
// flat schedule only. The arithmetic follows the framework's operation
// for operation so the decision and the report match bit for bit.
func redistCost(c remap.CostModel, mdl machine.Model, x machine.Exchange, p int, moved int64, sets int) float64 {
	words := float64(moved) * float64(c.M)
	switch x {
	case machine.ExchangeAggregated:
		return words*c.Tlat + float64(min(sets, p))*c.Tsetup
	case machine.ExchangeHierarchical:
		t := mdl.Topo
		nodes := t.Nodes(p)
		interPairs := min(sets, nodes*(nodes-1))
		return words*c.Tlat + 2*words*t.IntraTlat +
			2*float64(min(sets, p))*t.IntraTsetup + float64(interPairs)*c.Tsetup
	default:
		return c.RedistCost(moved, sets)
	}
}
