package main

import (
	"plum/internal/core"
	"plum/internal/partition"
)

// Metric is one reported figure: its name, unit and value.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// endToEnd are the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "run_cpu_s", Unit: "s"},
	{Name: "run_w1_cpu_s", Unit: "s"},
	{Name: "alloc_mb", Unit: "MB"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "imbalance_final", Unit: "ratio"},
	{Name: "modeled_s", Unit: "s"},
}

// perLayer are the traced replica's metrics, in BENCHMARK.json order.
var perLayer = []Metric{
	{Name: "solver.iterate_s", Unit: "s"},
	{Name: "solver.sync_s", Unit: "s"},
	{Name: "solver.modeled_s", Unit: "s"},
	{Name: "adapt.mark_s", Unit: "s"},
	{Name: "adapt.marked_edges", Unit: "count"},
	{Name: "par.refine_s", Unit: "s"},
	{Name: "par.refine.alloc_mb", Unit: "MB"},
	{Name: "par.refine.modeled_s", Unit: "s"},
	{Name: "par.refine.new_elems", Unit: "count"},
	{Name: "par.refine.msgs", Unit: "count"},
	{Name: "par.refine.words", Unit: "words"},
	{Name: "par.refine.rounds", Unit: "count"},
	{Name: "par.refine.crit_frac", Unit: "ratio"},
	{Name: "par.refine.host_over_modeled", Unit: "ratio"},
	{Name: "propagate.run_s", Unit: "s"},
	{Name: "propagate.visits", Unit: "count"},
	{Name: "propagate.marked", Unit: "count"},
	{Name: "propagate.useful_frac", Unit: "ratio"},
	{Name: "dual.update_weights_s", Unit: "s"},
	{Name: "partition.repartition_s", Unit: "s"},
	{Name: "partition.alloc_mb", Unit: "MB"},
	{Name: "partition.modeled_s", Unit: "s"},
	{Name: "partition.ops", Unit: "count"},
	{Name: "partition.crit_ops", Unit: "count"},
	{Name: "partition.refine_ops", Unit: "count"},
	{Name: "partition.imbalance", Unit: "ratio"},
	{Name: "partition.edge_cut", Unit: "count"},
	{Name: "partition.host_over_modeled", Unit: "ratio"},
	{Name: "remap.reassign_s", Unit: "s"},
	{Name: "remap.reassign.modeled_s", Unit: "s"},
	{Name: "remap.ops", Unit: "count"},
	{Name: "remap.objective_frac", Unit: "ratio"},
	{Name: "remap.moved_elems", Unit: "count"},
	{Name: "remap.sets", Unit: "count"},
	{Name: "remap.reassign.host_over_modeled", Unit: "ratio"},
	{Name: "core.cycle.self_s", Unit: "s"},
	{Name: "core.balance.repartitioned", Unit: "count"},
	{Name: "core.balance.accepted", Unit: "count"},
	{Name: "core.balance.accept_frac", Unit: "ratio"},
	{Name: "core.outcome.committed", Unit: "count"},
	{Name: "core.outcome.retried_committed", Unit: "count"},
	{Name: "core.outcome.recovered", Unit: "count"},
	{Name: "core.outcome.rolled_back", Unit: "count"},
	{Name: "core.outcome.degraded", Unit: "count"},
	{Name: "par.remap_exec_s", Unit: "s"},
	{Name: "par.remap.alloc_mb", Unit: "MB"},
	{Name: "par.remap.modeled_s", Unit: "s"},
	{Name: "par.remap.setups", Unit: "count"},
	{Name: "par.remap.peak_words", Unit: "words"},
	{Name: "par.remap.retries", Unit: "count"},
	{Name: "par.remap.window_retries", Unit: "count"},
	{Name: "par.remap.recovery_s", Unit: "s"},
	{Name: "par.remap_exec.host_over_modeled", Unit: "ratio"},
	{Name: "ckpt.capture_s", Unit: "s"},
	{Name: "ckpt.delta_words", Unit: "words"},
	{Name: "ckpt.full_clones", Unit: "count"},
	{Name: "mesh.check_s", Unit: "s"},
	{Name: "mesh.active_elems", Unit: "count"},
	{Name: "runtime.gc_cycles", Unit: "count"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio"},
	{Name: "trace.overhead_s", Unit: "s"},
}

// ratio is num/den, or 0 when den is 0 (the layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics of one traced run from its
// spans, its reports and the replica's own counters. trace.overhead_s
// needs the untraced twin and is filled by the parent.
func layerMetrics(x *replica, r Result) map[string]float64 {
	sp := r.Spans
	mdl := x.fw.Cfg.Model
	m := map[string]float64{
		"solver.iterate_s":      seconds(sp, "solver.iterate"),
		"solver.sync_s":         seconds(sp, "solver.sync"),
		"adapt.mark_s":          seconds(sp, "adapt.mark"),
		"adapt.marked_edges":    x.n["adapt.marked_edges"],
		"par.refine_s":          seconds(sp, "par.refine"),
		"par.refine.alloc_mb":   allocMB(sp, "par.refine"),
		"propagate.run_s":       seconds(sp, "propagate.run"),
		"propagate.visits":      x.n["propagate.visits"],
		"propagate.marked":      x.n["propagate.marked"],
		"propagate.useful_frac": ratio(x.n["propagate.marked"], x.n["propagate.visits"]),
		"dual.update_weights_s": seconds(sp, "dual.update_weights"),

		"partition.repartition_s": seconds(sp, "partition.repartition"),
		"partition.alloc_mb":      allocMB(sp, "partition.repartition"),
		"partition.modeled_s":     x.n["partition.modeled_s"],
		"partition.ops":           x.n["partition.ops"],
		"partition.crit_ops":      x.n["partition.crit_ops"],
		"partition.refine_ops":    x.n["partition.refine_ops"],

		"remap.reassign_s":         seconds(sp, "remap.reassign") + seconds(sp, "remap.move_stats"),
		"remap.reassign.modeled_s": x.n["remap.ops"] * mdl.MemOp,
		"remap.ops":                x.n["remap.ops"],
		"remap.objective_frac":     ratio(x.n["remap.objective"], x.n["remap.similarity_total"]),

		"core.cycle.self_s": selfSeconds(sp, "core.cycle"),

		"par.remap_exec_s":     seconds(sp, "par.remap_exec"),
		"par.remap.alloc_mb":   allocMB(sp, "par.remap_exec") + allocMB(sp, "par.remap.recovery"),
		"par.remap.recovery_s": seconds(sp, "par.remap.recovery"),

		"ckpt.capture_s":   seconds(sp, "ckpt.capture"),
		"ckpt.full_clones": x.n["ckpt.full_clones"],

		"mesh.check_s":        seconds(sp, "mesh.check"),
		"mesh.active_elems":   float64(x.fw.M.NumActiveElems()),
		"runtime.gc_cycles":   x.n["runtime.gc_cycles"],
		"runtime.gc_cpu_frac": x.n["runtime.gc_cpu_frac"],
	}
	if x.ck != nil {
		m["ckpt.delta_words"] = float64(x.ck.Stats().DeltaWords)
	}
	if x.lastPart != nil {
		m["partition.imbalance"] = x.lastImbalance
		m["partition.edge_cut"] = float64(partition.EdgeCut(x.fw.G, x.lastPart))
	}

	var crit, total float64
	outcome := map[core.BalanceOutcome]string{
		core.OutcomeCommitted:        "core.outcome.committed",
		core.OutcomeRetriedCommitted: "core.outcome.retried_committed",
		core.OutcomeRecovered:        "core.outcome.recovered",
		core.OutcomeRolledBack:       "core.outcome.rolled_back",
		core.OutcomeDegraded:         "core.outcome.degraded",
	}
	for _, name := range outcome {
		m[name] = 0
	}
	for _, rep := range r.Reports {
		b := rep.Balance
		m["solver.modeled_s"] += rep.SolverTime
		m["par.refine.modeled_s"] += b.AdaptExecTime
		m["par.refine.new_elems"] += float64(rep.Refine.NewElems)
		m["par.refine.msgs"] += float64(rep.AdaptTime.Msgs)
		m["par.refine.words"] += float64(rep.AdaptTime.Words)
		m["par.refine.rounds"] += float64(rep.AdaptTime.CommRounds)
		crit += float64(rep.AdaptTime.Ops.Crit)
		total += float64(rep.AdaptTime.Ops.Total)
		m[outcome[rep.Outcome]]++
		if !b.Repartitioned {
			continue
		}
		m["core.balance.repartitioned"]++
		m["remap.moved_elems"] += float64(b.MoveC)
		m["remap.sets"] += float64(b.MoveN)
		if b.Accepted {
			m["core.balance.accepted"]++
			m["par.remap.modeled_s"] += b.Remap.Ops.Time(mdl)
			m["par.remap.setups"] += float64(b.Remap.Setups)
			m["par.remap.peak_words"] = max(m["par.remap.peak_words"], float64(b.Remap.PeakWords))
			m["par.remap.retries"] += float64(b.Remap.Retries)
			m["par.remap.window_retries"] += float64(b.Remap.WindowRetries)
		}
		if b.Outcome == core.OutcomeRecovered {
			m["par.remap.modeled_s"] += b.Recovery.Ops.Time(mdl)
			m["par.remap.setups"] += float64(b.Recovery.Setups)
			m["par.remap.peak_words"] = max(m["par.remap.peak_words"], float64(b.Recovery.PeakWords))
		}
	}
	m["par.refine.crit_frac"] = ratio(crit, total)
	m["core.balance.accept_frac"] = ratio(m["core.balance.accepted"], m["core.balance.repartitioned"])
	m["par.refine.host_over_modeled"] = ratio(m["par.refine_s"], m["par.refine.modeled_s"])
	m["partition.host_over_modeled"] = ratio(m["partition.repartition_s"], m["partition.modeled_s"])
	m["remap.reassign.host_over_modeled"] = ratio(m["remap.reassign_s"], m["remap.reassign.modeled_s"])
	m["par.remap_exec.host_over_modeled"] = ratio(m["par.remap_exec_s"]+m["par.remap.recovery_s"], m["par.remap.modeled_s"])
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m
}
