package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// withPortableKernel forces the portable Go micro-kernel for the rest of
// the test or benchmark, so the fallback is exercised on hosts whose CPU
// probe picks the SIMD kernel. Tests that call it must not run in
// parallel.
func withPortableKernel(t testing.TB) {
	t.Helper()
	saved := useFMA
	useFMA = false
	t.Cleanup(func() { useFMA = saved })
}

// kernelModes runs fn once per micro-kernel this host can execute: the
// one the CPU probe picked, then the portable one if that was not it.
func kernelModes(t *testing.T, fn func(t *testing.T)) {
	t.Run("probed", fn)
	if useFMA {
		t.Run("portable", func(t *testing.T) {
			withPortableKernel(t)
			fn(t)
		})
	}
}

// TestGemmRowsIndependentOfBatch pins the invariant the serving runtime
// depends on: a row of C = op(A)·op(B) is bit-identical whatever batch
// it is computed in and wherever in the batch it sits, because interior
// and fringe tiles share one arithmetic chain. k crosses a KC block and
// n an NC block at the default block sizes.
func TestGemmRowsIndependentOfBatch(t *testing.T) {
	const k, n = defaultKC + 44, defaultNC + 9
	kernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		fixed := tensor.RandMatrix(rng, 2, k, 1) // the rows under test
		cInit := tensor.RandMatrix(rng, 2, n, 1) // their C rows when beta=1
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, tB := range []Transpose{NoTrans, Trans} {
				b := tensor.RandMatrix(rng, k, n, 1)
				if tB == Trans {
					b = b.T()
				}
				for _, ab := range [][2]float32{{1, 0}, {0.7, 1}} {
					alpha, beta := ab[0], ab[1]
					var ref [][]float32 // per fixed row, from the first batch
					for _, m := range []int{1, 7, 8, 9, 13, 257} {
						for _, cfg := range []Config{{Impl: Blocked}, {Impl: Parallel, Threads: 2}, {Workspace: &Workspace{}}} {
							for f := 0; f < fixed.Rows; f++ {
								pos := (f*5 + m/2) % m
								opA := tensor.RandMatrix(rng, m, k, 1)
								copy(opA.Row(pos), fixed.Row(f))
								c := tensor.RandMatrix(rng, m, n, 1)
								copy(c.Row(pos), cInit.Row(f))
								a := opA
								if tA == Trans {
									a = opA.T()
								}
								GemmWith(cfg, tA, tB, alpha, a, b, beta, c)
								row := append([]float32(nil), c.Row(pos)...)
								if len(ref) <= f {
									ref = append(ref, row)
									continue
								}
								if j := firstBitDiff(row, ref[f]); j >= 0 {
									t.Fatalf("tA=%v tB=%v alpha=%v beta=%v m=%d cfg=%+v row %d at %d: C[%d] = %v, want %v (batch m=1)",
										tA, tB, alpha, beta, m, cfg, f, pos, j, row[j], ref[f][j])
								}
							}
						}
					}
				}
			}
		}
	})
}

// firstBitDiff returns the first index where x and y differ bitwise, or
// -1 when they are identical.
func firstBitDiff(x, y []float32) int {
	for j := range x {
		if math.Float32bits(x[j]) != math.Float32bits(y[j]) {
			return j
		}
	}
	return -1
}

// TestMicroKernelsAgree checks one full tile from each kernel against a
// float64 oracle, and that the dispatcher writes only its mr×nr tile.
func TestMicroKernelsAgree(t *testing.T) {
	for _, kc := range []int{0, 1, 3, 4, 5, 17, 256} {
		kernelModes(t, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kc)))
			ap := tensor.RandVector(rng, kc*mr, 1)
			bp := tensor.RandVector(rng, kc*nr, 1)
			const ldc = nr + 3
			c := tensor.RandVector(rng, (mr-1)*ldc+nr+2, 1)
			got := c.Clone()
			microKernel(kc, ap, bp, got, ldc, 0.5)
			for i := range c {
				r, j := i/ldc, i%ldc
				want := float64(c[i])
				if r < mr && j < nr {
					var s float64
					for p := 0; p < kc; p++ {
						s += float64(ap[p*mr+r]) * float64(bp[p*nr+j])
					}
					want += 0.5 * s
				}
				if d := math.Abs(float64(got[i]) - want); d > 1e-4*float64(kc+1) {
					t.Fatalf("kc=%d: c[%d] (row %d col %d) = %v, want %v", kc, i, r, j, got[i], want)
				}
			}
		})
	}
}
