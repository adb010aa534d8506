package geom_test

import (
	"testing"

	"luxvis/internal/geom"
)

// certScales stretch the int8 grid across the regimes of Orient's
// tolerance: below the max(1, ·) floor, the simulator's scale, and far
// past it, where Cross2's own rounding rivals the tolerance band.
var certScales = [...]float64{1, 1e-3, 1e2, 1e7}

// decodeCertInput reads a scale selector and a perturbation amplitude,
// then (x, y, dx, dy) quadruples: an int8 grid point, where collinearity
// is exact, nudged by dx, dy in units of Eps/256 — so up to half an Eps,
// inside every tolerance band the hull and its classification use.
func decodeCertInput(data []byte) []geom.Point {
	if len(data) < 2 {
		return nil
	}
	scale := certScales[int(data[0])%len(certScales)]
	amp := float64(data[1]) / 255
	data = data[2:]
	n := len(data) / 4
	if n > 24 {
		n = 24
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		q := data[4*i : 4*i+4]
		pts[i] = geom.Pt(
			float64(int8(q[0]))*scale+amp*float64(int8(q[2]))*geom.Eps/256,
			float64(int8(q[1]))*scale+amp*float64(int8(q[3]))*geom.Eps/256,
		)
	}
	return pts
}

// FuzzCornerCertificate checks the corner certificate's soundness: for
// every point of a fuzzed swarm, CornerCertified(self, others) implies
// that ConvexHull of the whole swarm classifies self as a corner.
func FuzzCornerCertificate(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 5, 8, 0, 0})                    // triangle
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0})         // collinear run
	f.Add([]byte{0, 255, 0, 0, 0, 0, 4, 0, 127, 129, 4, 4, 0, 0, 2, 0, 1, 255}) // edge point nudged
	f.Add([]byte{1, 0, 0, 0, 0, 0, 2, 1, 0, 0, 4, 2, 0, 0, 0, 9, 0, 0})         // sub-floor scale
	f.Add([]byte{3, 128, 0, 0, 0, 0, 100, 1, 0, 0, 200, 2, 0, 0, 7, 99, 3, 3})  // far-scale sliver
	f.Add([]byte{2, 255, 5, 5, 0, 0, 5, 5, 127, 127, 9, 0, 0, 0, 0, 9, 0, 0})   // near-coincident pair
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodeCertInput(data)
		if len(pts) < 3 {
			return
		}
		hull := geom.ConvexHull(pts)
		others := make([]geom.Point, 0, len(pts)-1)
		for i, self := range pts {
			others = append(others[:0], pts[:i]...)
			others = append(others, pts[i+1:]...)
			if geom.CornerCertified(self, others) {
				if c := hull.Classify(self); c != geom.HullCorner {
					t.Fatalf("CornerCertified(%v, %v) holds, but the hull (%v) classifies it %v",
						self, others, hull.Corners, c)
				}
			}
		}
	})
}
