package adapt

import (
	"math/rand"
	"testing"

	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

// checkLookup verifies m and that FindEdge agrees, in both argument
// orders, with a map rebuilt from the live edges; sampled vertex pairs
// without an edge must give InvalidEdge.
func checkLookup(t *testing.T, m *mesh.Mesh, rng *rand.Rand, ctx string) {
	t.Helper()
	if err := m.Check(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	ref := make(map[[2]mesh.VertID]mesh.EdgeID)
	for i := range m.Edges {
		ed := &m.Edges[i]
		if ed.Dead {
			continue
		}
		a, b := min(ed.V[0], ed.V[1]), max(ed.V[0], ed.V[1])
		ref[[2]mesh.VertID{a, b}] = mesh.EdgeID(i)
	}
	for k, e := range ref {
		if got := m.FindEdge(k[0], k[1]); got != e {
			t.Fatalf("%s: FindEdge(%d,%d) = %d, want %d", ctx, k[0], k[1], got, e)
		}
		if got := m.FindEdge(k[1], k[0]); got != e {
			t.Fatalf("%s: FindEdge(%d,%d) = %d, want %d", ctx, k[1], k[0], got, e)
		}
	}
	var live []mesh.VertID
	for v := range m.Verts {
		if !m.Verts[v].Dead {
			live = append(live, mesh.VertID(v))
		}
	}
	for s := 0; s < 200; s++ {
		a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
		if _, ok := ref[[2]mesh.VertID{min(a, b), max(a, b)}]; ok {
			continue
		}
		if got := m.FindEdge(a, b); got != mesh.InvalidEdge {
			t.Fatalf("%s: FindEdge(%d,%d) = %d for non-adjacent pair", ctx, a, b, got)
		}
	}
}

// TestPropertyFindEdgeMatchesReference drives random refine, coarsen,
// Compact, Rebase, Clone and Restore sequences and checks edge lookup
// against a reference map after every step.
func TestPropertyFindEdgeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
		a := New(m)
		checkLookup(t, m, rng, "initial")
		for step := 0; step < 8; step++ {
			var op string
			switch rng.Intn(6) {
			case 0, 1:
				op = "refine"
				a.MarkRandom(0.02+0.06*rng.Float64(), MarkRefine, rng.Int63())
				a.Refine()
			case 2:
				op = "coarsen"
				a.MarkRandom(0.1+0.5*rng.Float64(), MarkCoarsen, rng.Int63())
				a.Coarsen()
			case 3:
				op = "compact"
				a.Compact()
			case 4:
				op = "rebase"
				m.Rebase()
				a = New(m)
			case 5:
				if rng.Intn(2) == 0 {
					op = "clone"
					m = m.Clone()
				} else {
					op = "restore"
					c := m.Clone()
					m = mesh.Restore(c.Verts, c.Edges, c.Elems, c.Faces)
				}
				a = New(m)
			}
			checkLookup(t, m, rng, op)
		}
	}
}

// grown returns how many objects each slab gained since before.
func grown(m *mesh.Mesh, before roundSize) roundSize {
	return roundSize{
		len(m.Verts) - before.verts, len(m.Edges) - before.edges,
		len(m.Elems) - before.elems, len(m.Faces) - before.faces,
	}
}

func slabLens(m *mesh.Mesh) roundSize {
	return roundSize{len(m.Verts), len(m.Edges), len(m.Elems), len(m.Faces)}
}

// TestSizeRoundExactOnRefinedMesh pins the slab reservation: on a mesh
// that has only been refined every round appends exactly what sizeRound
// predicts, so slabs that had to grow end with no spare capacity.
func TestSizeRoundExactOnRefinedMesh(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
		a := New(m)
		for cycle := 0; cycle < 3; cycle++ {
			a.MarkRandom(0.02+0.1*rng.Float64(), MarkRefine, rng.Int63())
			m = m.Clone() // no spare capacity: every growing slab is reserved
			a.M = m
			a.propagateMarks()
			before := slabLens(m)
			want, _ := a.sizeRound()
			a.refineRound()
			if got := grown(m, before); got != want {
				t.Fatalf("seed %d cycle %d: round appended %+v, sized %+v", seed, cycle, got, want)
			}
			if len(m.Elems) != cap(m.Elems) || len(m.Edges) != cap(m.Edges) || len(m.Verts) != cap(m.Verts) {
				t.Fatalf("seed %d cycle %d: spare capacity after an exact round", seed, cycle)
			}
			if st := a.Refine(); st.TotalSubdivided() != 0 {
				t.Fatalf("seed %d cycle %d: a refined mesh needed a second round", seed, cycle)
			}
		}
	}
}

// TestSizeRoundNeverOverReserves runs coarsening's re-refinement round by
// round. Coarsening can leave an interior face matched by a differently
// split face on the other side, so a face edge may be seen from one side
// only and the edge count fall short; sizeRound must still never predict
// more than a round appends, or the reservation would waste memory.
func TestSizeRoundNeverOverReserves(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
		a := New(m)
		for cycle := 0; cycle < 4; cycle++ {
			a.MarkRandom(0.05+0.25*rng.Float64(), MarkRefine, rng.Int63())
			a.Refine()
			var cst CoarsenStats
			a.MarkRandom(0.1+0.4*rng.Float64(), MarkCoarsen, rng.Int63())
			a.coarsenRemove(&cst)
			for {
				a.propagateMarks()
				before := slabLens(m)
				want, splits := a.sizeRound()
				a.refineRound()
				got := grown(m, before)
				if want.verts != got.verts || want.elems != got.elems || want.faces != got.faces || want.edges > got.edges {
					t.Fatalf("seed %d cycle %d: re-refinement sized %+v, appended %+v", seed, cycle, want, got)
				}
				if len(splits) == 0 {
					break
				}
			}
			checkMesh(t, m, "after coarsening")
		}
	}
}
