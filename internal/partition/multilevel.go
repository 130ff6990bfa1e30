package partition

import (
	"math/rand"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/refine"
)

// Multilevel partitions by the Chaco-style multilevel scheme: the dual
// graph is coarsened by repeated edge matchings until it is small, the
// coarse graph is partitioned spectrally, and the partition is projected
// back up with boundary refinement at every level.
func Multilevel(g *dual.Graph, k int) Assignment {
	asg, _ := multilevelCounted(g, k, Options{Seed: 1})
	return asg
}

// multilevelCounted is Multilevel with op accounting: the matching and
// edge-collapse work of every coarsening level, the spectral solve on the
// coarsest graph, and the projection plus boundary refinement of every
// uncoarsening level. A coarsening level that contracts a graph into n_c
// vertices joined by E_c edges is charged 2·Σ(1+deg) + 2·E_c + n_c: one
// Σ(1+deg) scan for the matching and one for the row build, then one op
// per transposed entry and one per coarse row. The scheme itself is
// serial (only the configured refiner's passes may parallelize, on
// levels big enough to engage it).
// opt.Seed offsets the per-level matching RNG; seed 1 reproduces the
// historical level-index seeding.
func multilevelCounted(g *dual.Graph, k int, opt Options) (Assignment, Ops) {
	const coarseTarget = 200
	target := coarseTarget
	if 4*k > target {
		target = 4 * k
	}
	seed := opt.Seed
	// Multilevel's per-level graphs are small and the scheme is serial,
	// so its historical default refiner is the classic cascading FM
	// sweep; an explicitly configured backend (Options.Refiner) wins.
	r := opt.Refiner
	if r == nil {
		r = refine.FM{}
	}

	var ops Ops

	// Coarsening chain.
	type level struct {
		g    *dual.Graph
		map_ []int32 // fine vertex -> coarse vertex (nil for the finest)
	}
	levels := []level{{g: g}}
	cur := g
	sc := newCoarsenScratch(g)
	for cur.N > target {
		cg, cmap, cops := coarsenCounted(cur, seed-1+int64(len(levels)), sc)
		ops.AddSerial(cops)
		if cg.N >= cur.N*9/10 {
			break // matching stalled; stop coarsening
		}
		levels = append(levels, level{g: cg, map_: cmap})
		cur = cg
	}

	// Initial partition of the coarsest graph.
	asg, sops := spectralCounted(cur, k)
	ops.Add(sops)
	ops.AddMem(r.Refine(cur, asg, k, 4))

	// Uncoarsen with refinement.
	for li := len(levels) - 1; li >= 1; li-- {
		fine := levels[li-1].g
		cmap := levels[li].map_
		fineAsg := make(Assignment, fine.N)
		for v := range fineAsg {
			fineAsg[v] = asg[cmap[v]]
		}
		asg = fineAsg
		ops.AddSerial(int64(fine.N))
		ops.AddMem(r.Refine(fine, asg, k, 2))
	}
	return asg, ops
}

// coarsenScratch holds coarsenCounted's work arrays. multilevelCounted
// sizes it once for the finest graph and reuses it on every coarser
// level: a level never has more vertices, or more adjacency entries, than
// the level it was contracted from.
type coarsenScratch struct {
	mem  []int32 // fine members of coarse vertex c: mem[2c], mem[2c+1] (-1 = none)
	mark []int32 // row dedup marker: mark[cw] == c once cw is in row c
	off  []int32 // row c of rows is rows[off[c]:off[c+1]]
	cur  []int32 // transpose write cursor per coarse row
	rows []int32 // unsorted coarse rows, back to back
}

func newCoarsenScratch(g *dual.Graph) *coarsenScratch {
	deg := 0
	for _, a := range g.Adj {
		deg += len(a)
	}
	return &coarsenScratch{
		mem:  make([]int32, 2*g.N),
		mark: make([]int32, g.N),
		off:  make([]int32, g.N+1),
		cur:  make([]int32, g.N),
		rows: make([]int32, deg),
	}
}

// coarsenCounted contracts a random maximal matching of the symmetric
// graph g, returning the coarse graph, the fine→coarse vertex map, and
// the op count of the matching plus edge collapse. Matched pairs merge
// their weights; parallel coarse edges are collapsed. sc must come from
// newCoarsenScratch on g or on a graph g was contracted from.
func coarsenCounted(g *dual.Graph, seed int64, sc *coarsenScratch) (*dual.Graph, []int32, int64) {
	var ops int64
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(g.N)
	cmap := make([]int32, g.N)
	for i := range cmap {
		cmap[i] = -1
	}
	mem := sc.mem
	var nc int32
	for _, vi := range order {
		v := int32(vi)
		ops += 1 + int64(len(g.Adj[v]))
		if cmap[v] >= 0 {
			continue
		}
		// Prefer the heaviest unmatched neighbour (heavy-vertex matching
		// keeps coarse weights even).
		var best int32 = -1
		for _, w := range g.Adj[v] {
			if cmap[w] >= 0 {
				continue
			}
			if best < 0 || g.Wcomp[w] > g.Wcomp[best] {
				best = w
			}
		}
		cmap[v] = nc
		if best >= 0 {
			cmap[best] = nc
		}
		mem[2*nc], mem[2*nc+1] = v, best
		nc++
	}

	cg := &dual.Graph{
		N:          int(nc),
		Adj:        make([][]int32, nc),
		Wcomp:      make([]int64, nc),
		Wremap:     make([]int64, nc),
		EdgeWeight: g.EdgeWeight,
		Centroid:   make([]geom.Vec3, nc),
	}
	// Build each coarse row from its members' adjacency, skipping
	// self-loops and deduplicating through the marker array. Each
	// centroid sum starts from the zero vector, as a running sum over the
	// fine vertices would (a -0 coordinate becomes +0), and IEEE addition
	// commutes, so the member order cannot change a bit of the result.
	mark, off, rows := sc.mark[:nc], sc.off, sc.rows
	for i := range mark {
		mark[i] = -1
	}
	var n int32
	for c := int32(0); c < nc; c++ {
		v, u := mem[2*c], mem[2*c+1]
		cg.Wcomp[c] = g.Wcomp[v]
		cg.Wremap[c] = g.Wremap[v]
		cg.Centroid[c] = geom.Vec3{}.Add(g.Centroid[v])
		if u >= 0 {
			cg.Wcomp[c] += g.Wcomp[u]
			cg.Wremap[c] += g.Wremap[u]
			cg.Centroid[c] = cg.Centroid[c].Add(g.Centroid[u]).Scale(0.5)
		}
		for _, x := range mem[2*c : 2*c+2] {
			if x < 0 {
				continue
			}
			ops += 1 + int64(len(g.Adj[x]))
			for _, w := range g.Adj[x] {
				cw := cmap[w]
				if cw == c || mark[cw] == c {
					continue
				}
				mark[cw] = c
				rows[n] = cw
				n++
			}
		}
		off[c+1] = n
	}
	// Transpose once: walking c ascending and appending c to each of its
	// neighbours' rows leaves every row sorted, and because g is
	// symmetric row w of the transpose holds exactly the entries of row
	// w, so it fits the same offsets.
	flat := make([]int32, n)
	cur := sc.cur[:nc]
	copy(cur, off[:nc])
	for c := int32(0); c < nc; c++ {
		for _, w := range rows[off[c]:off[c+1]] {
			flat[cur[w]] = c
			cur[w]++
		}
	}
	for c := int32(0); c < nc; c++ {
		if lo, hi := off[c], off[c+1]; hi > lo {
			cg.Adj[c] = flat[lo:hi:hi]
		}
	}
	ops += int64(n) + int64(nc)
	return cg, cmap, ops
}

// Boundary refinement lives in internal/refine since the band-FM
// extraction: the classic serial sweep is refine.FMRefine, and the
// partitioners smooth their cuts through the Options.Refiner backend
// (refine.BandFM by default).
