package main

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"plum/internal/core"
)

// workerInvariant returns copies of reps with the fields a worker count
// may change zeroed: critical-path op counts, and the modeled times and
// cost figures computed from them. Everything else — owners, loads,
// imbalances, moved elements, total op counts, outcomes, the executed
// remaps' modeled charges — must match at any worker count.
func workerInvariant(reps []core.CycleReport) []core.CycleReport {
	out := slices.Clone(reps)
	for i := range out {
		r := &out[i]
		r.AdaptTime.Ops.Crit, r.AdaptTime.Ops.MemCrit = 0, 0
		b := &r.Balance
		b.RepartitionCritOps, b.RefineCritOps, b.RemapCritOps, b.AdaptCritOps = 0, 0, 0, 0
		b.RepartitionTime, b.RepartitionCompTime, b.RepartitionMemTime = 0, 0, 0
		b.RemapExecTime, b.AdaptExecTime = 0, 0
		b.CostFull, b.Cost, b.OverlapTime = 0, 0, 0
		b.Remap.Ops.Crit, b.Remap.Ops.MemCrit = 0, 0
		b.Recovery.Ops.Crit, b.Recovery.Ops.MemCrit = 0, 0
	}
	return out
}

// outcomeMix summarizes a run's cycle outcomes, e.g.
// "1 recovered, 3 retried-committed".
func outcomeMix(reps []core.CycleReport) string {
	var order []core.BalanceOutcome
	count := map[core.BalanceOutcome]int{}
	for _, r := range reps {
		if count[r.Outcome] == 0 {
			order = append(order, r.Outcome)
		}
		count[r.Outcome]++
	}
	parts := make([]string, len(order))
	for i, o := range order {
		parts[i] = fmt.Sprintf("%d %s", count[o], o)
	}
	return strings.Join(parts, ", ")
}

// sameOutputs compares two runs' owners and cycle reports. With
// acrossWorkers the fields a worker count may change — critical-path op
// counts and the modeled times derived from them — are ignored.
func sameOutputs(a, b Result, acrossWorkers bool) error {
	if !slices.Equal(a.Owners, b.Owners) {
		return fmt.Errorf("owners differ")
	}
	ra, rb := a.Reports, b.Reports
	if acrossWorkers {
		ra, rb = workerInvariant(ra), workerInvariant(rb)
	}
	if len(ra) != len(rb) {
		return fmt.Errorf("%d vs %d cycle reports", len(ra), len(rb))
	}
	for c := range ra {
		if !reflect.DeepEqual(ra[c], rb[c]) {
			return fmt.Errorf("cycle %d reports differ:\n  %+v\n  %+v", c+1, ra[c], rb[c])
		}
	}
	return nil
}
