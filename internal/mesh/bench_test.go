package mesh_test

import (
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/meshgen"
)

// BenchmarkMeshCheck validates an adapted box mesh (10,368 elements
// refined once at 25% random marking), the check every plum run ends with.
func BenchmarkMeshCheck(b *testing.B) {
	m := meshgen.Box(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := adapt.New(m)
	a.MarkRandom(0.25, adapt.MarkRefine, 97)
	a.Refine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Check(); err != nil {
			b.Fatal(err)
		}
	}
}
