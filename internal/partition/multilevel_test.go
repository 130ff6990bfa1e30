package partition

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/meshgen"
)

// coarsenSortReference is the contraction coarsenCounted replaced: the
// same matching, then every coarse edge packed as an ordered pair, sorted,
// compacted, and appended to both endpoints' rows. It is kept as the
// oracle the bucket-and-transpose build must reproduce exactly.
func coarsenSortReference(g *dual.Graph, seed int64) (*dual.Graph, []int32) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(g.N)
	cmap := make([]int32, g.N)
	for i := range cmap {
		cmap[i] = -1
	}
	var nc int32
	for _, vi := range order {
		v := int32(vi)
		if cmap[v] >= 0 {
			continue
		}
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
	cnt := make([]float64, nc)
	for v := 0; v < g.N; v++ {
		c := cmap[v]
		cg.Wcomp[c] += g.Wcomp[v]
		cg.Wremap[c] += g.Wremap[v]
		cg.Centroid[c] = cg.Centroid[c].Add(g.Centroid[v])
		cnt[c]++
	}
	for c := range cg.Centroid {
		if cnt[c] > 0 {
			cg.Centroid[c] = cg.Centroid[c].Scale(1 / cnt[c])
		}
	}
	var pairs []uint64
	for v := 0; v < g.N; v++ {
		cv := cmap[v]
		for _, w := range g.Adj[v] {
			cw := cmap[w]
			if cv == cw {
				continue
			}
			a, b := cv, cw
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, uint64(uint32(a))<<32|uint64(uint32(b)))
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	for _, pq := range pairs {
		a, b := int32(pq>>32), int32(uint32(pq))
		cg.Adj[a] = append(cg.Adj[a], b)
		cg.Adj[b] = append(cg.Adj[b], a)
	}
	return cg, cmap
}

// adaptedRotorDual is the rotor-disk dual graph weighted by one Local_1
// refinement pass with the given marking seed.
func adaptedRotorDual(rp meshgen.RotorParams, seed int64) *dual.Graph {
	m := meshgen.RotorDisk(rp)
	g := dual.Build(m)
	a := adapt.New(m)
	a.MarkStrategyRefine(adapt.Local1, seed)
	a.Refine()
	g.UpdateWeights(m)
	return g
}

// edgelessGraph is n vertices with seeded random weights and centroids
// and no edges. Weights are small so the matching sees ties.
func edgelessGraph(n int, rng *rand.Rand) *dual.Graph {
	g := &dual.Graph{
		N:          n,
		Adj:        make([][]int32, n),
		Wcomp:      make([]int64, n),
		Wremap:     make([]int64, n),
		EdgeWeight: 1,
		Centroid:   make([]geom.Vec3, n),
	}
	for v := range n {
		g.Wcomp[v] = int64(1 + rng.Intn(4))
		g.Wremap[v] = int64(1 + rng.Intn(9))
		g.Centroid[v] = geom.Vec3{X: rng.NormFloat64(), Y: rng.Float64(), Z: -rng.Float64()}
	}
	return g
}

// link adds the undirected edge a-b to g.
func link(g *dual.Graph, a, b int) {
	g.Adj[a] = append(g.Adj[a], int32(b))
	g.Adj[b] = append(g.Adj[b], int32(a))
}

// randomGraph is a symmetric multigraph on n vertices: every vertex below
// n/8 is isolated, the last 10 vertices form a star around vertex n-10 (so
// most of its leaves find no unmatched neighbour), and the rest carry m
// random edges, repeats allowed.
func randomGraph(n, m int, seed int64) *dual.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := edgelessGraph(n, rng)
	lo, hub := n/8, n-10
	for range m {
		a, b := lo+rng.Intn(hub-lo), lo+rng.Intn(hub-lo)
		if a != b {
			link(g, a, b)
		}
	}
	for leaf := hub + 1; leaf < n; leaf++ {
		link(g, hub, leaf)
	}
	return g
}

// starGraph is one hub with n-1 leaves: a matching merges the hub with a
// single leaf, so coarsening stalls at n-1 vertices.
func starGraph(n int) *dual.Graph {
	g := edgelessGraph(n, rand.New(rand.NewSource(1)))
	for leaf := 1; leaf < n; leaf++ {
		link(g, 0, leaf)
	}
	return g
}

// checkCoarseRows asserts the shape every coarse graph must have: each
// row strictly ascending (so free of duplicates), no self-loops, and
// every edge present in both endpoints' rows.
func checkCoarseRows(t *testing.T, name string, g *dual.Graph) {
	t.Helper()
	for c, row := range g.Adj {
		for i, w := range row {
			if int(w) == c {
				t.Fatalf("%s: row %d has a self-loop", name, c)
			}
			if i > 0 && row[i-1] >= w {
				t.Fatalf("%s: row %d not strictly ascending: %v", name, c, row)
			}
			if _, ok := slices.BinarySearch(g.Adj[w], int32(c)); !ok {
				t.Fatalf("%s: edge %d-%d missing from row %d", name, c, w, w)
			}
		}
	}
}

// TestCoarsenMatchesSortReference pins the bucket-and-transpose
// contraction to the sort-based one it replaced, level after level of a
// coarsening chain that shares one scratch as multilevelCounted does:
// the same vertex map, weights and rows, and bit-identical centroids.
func TestCoarsenMatchesSortReference(t *testing.T) {
	rp := meshgen.DefaultRotor()
	if testing.Short() {
		rp.NR, rp.NTheta, rp.NZ = 8, 9, 9
	}
	inputs := map[string]*dual.Graph{"star": starGraph(300)}
	for _, s := range []int64{1, 2, 5} {
		inputs[fmt.Sprintf("rotor/seed%d", s)] = adaptedRotorDual(rp, s)
		inputs[fmt.Sprintf("random/seed%d", s)] = randomGraph(2000, 3000+1000*int(s), s)
	}
	for name, g := range inputs {
		sc := newCoarsenScratch(g)
		cur := g
		for level := int64(1); cur.N > 8 && level <= 12; level++ {
			cg, cmap, _ := coarsenCounted(cur, level, sc)
			want, wantMap := coarsenSortReference(cur, level)
			if cg.N != want.N || cg.EdgeWeight != want.EdgeWeight {
				t.Fatalf("%s level %d: N=%d EdgeWeight=%d, reference N=%d EdgeWeight=%d",
					name, level, cg.N, cg.EdgeWeight, want.N, want.EdgeWeight)
			}
			if !slices.Equal(cmap, wantMap) {
				t.Fatalf("%s level %d: vertex map differs from reference", name, level)
			}
			if !slices.Equal(cg.Wcomp, want.Wcomp) || !slices.Equal(cg.Wremap, want.Wremap) {
				t.Fatalf("%s level %d: coarse weights differ from reference", name, level)
			}
			for c := range cg.Centroid {
				a, b := cg.Centroid[c], want.Centroid[c]
				if math.Float64bits(a.X) != math.Float64bits(b.X) ||
					math.Float64bits(a.Y) != math.Float64bits(b.Y) ||
					math.Float64bits(a.Z) != math.Float64bits(b.Z) {
					t.Fatalf("%s level %d: centroid %d = %v, reference %v", name, level, c, a, b)
				}
			}
			for c := range cg.Adj {
				if !slices.Equal(cg.Adj[c], want.Adj[c]) {
					t.Fatalf("%s level %d: row %d = %v, reference %v", name, level, c, cg.Adj[c], want.Adj[c])
				}
			}
			checkCoarseRows(t, name, cg)
			if name == "star" && cg.N != cur.N-1 {
				t.Fatalf("star: coarsened %d -> %d, want a stall at %d", cur.N, cg.N, cur.N-1)
			}
			if cg.N >= cur.N*9/10 {
				break // stalled, as multilevelCounted would stop
			}
			cur = cg
		}
	}
}

// TestCoarsenOpsFollowContraction pins the per-level op accounting to the
// algorithm: Σ(1+deg) for the matching scan, Σ(1+deg) for the row build,
// one op per transposed entry (2·E_c) and one per coarse row (n_c). The
// graph is chosen so every matching order gives the same coarse shape: a
// star 0-{1,2,3} (hub plus one leaf merge, two leaves stay: 3 coarse
// vertices, 2 coarse edges), a triangle 4-5-6 (2 coarse vertices, 1 coarse
// edge) and an isolated vertex 7.
func TestCoarsenOpsFollowContraction(t *testing.T) {
	g := edgelessGraph(8, rand.New(rand.NewSource(1)))
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}, {5, 6}} {
		link(g, e[0], e[1])
	}
	const (
		scan = 8 + 12 // Σ(1+deg): 8 vertices, 12 adjacency entries
		nc   = 3 + 2 + 1
		ec   = 2 + 1
		want = scan + scan + 2*ec + nc
	)
	for seed := int64(1); seed <= 8; seed++ {
		cg, _, ops := coarsenCounted(g, seed, newCoarsenScratch(g))
		entries := 0
		for _, row := range cg.Adj {
			entries += len(row)
		}
		if cg.N != nc || entries != 2*ec {
			t.Fatalf("seed %d: coarse graph has %d vertices and %d entries, want %d and %d",
				seed, cg.N, entries, nc, 2*ec)
		}
		if ops != want {
			t.Errorf("seed %d: coarsening charged %d ops, want %d", seed, ops, want)
		}
	}
}

// BenchmarkMultilevel times one from-scratch multilevel partition of the
// paper's rotor-disk dual after a Local_1 pass, at k=64.
func BenchmarkMultilevel(b *testing.B) {
	g := adaptedRotorDual(meshgen.DefaultRotor(), 1)
	b.ReportAllocs()
	for b.Loop() {
		PartitionCounted(g, 64, MethodMultilevel, Options{})
	}
}
