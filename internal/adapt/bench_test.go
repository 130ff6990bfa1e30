package adapt

import (
	"testing"

	"plum/internal/geom"
	"plum/internal/meshgen"
)

// BenchmarkRefineRound runs one refinement round — propagation, slab
// reservation, bisection, subdivision, face splits — at 10% random marking
// on an adapted box mesh (10,368 elements refined once at 25%). Each
// iteration refines a fresh clone, made outside the timer.
func BenchmarkRefineRound(b *testing.B) {
	base := meshgen.Box(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := New(base)
	a.MarkRandom(0.25, MarkRefine, 97)
	a.Refine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := New(base.Clone())
		a.MarkRandom(0.10, MarkRefine, 43)
		b.StartTimer()
		if st := a.refineRound(); st.NewElems == 0 {
			b.Fatal("nothing refined")
		}
	}
}
