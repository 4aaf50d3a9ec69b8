package blas

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// gemmRef computes C = alpha·op(A)·op(B) + beta·C elementwise in float64,
// the independent oracle for all implementations.
func gemmRef(tA, tB Transpose, alpha float32, a, b *tensor.Matrix, beta float32, c *tensor.Matrix) *tensor.Matrix {
	m, k := opDims(a, tA)
	_, n := opDims(b, tB)
	out := tensor.NewMatrix(m, n)
	at := func(i, p int) float64 {
		if tA == Trans {
			return float64(a.At(p, i))
		}
		return float64(a.At(i, p))
	}
	bt := func(p, j int) float64 {
		if tB == Trans {
			return float64(b.At(j, p))
		}
		return float64(b.At(p, j))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			out.Set(i, j, float32(float64(alpha)*s+float64(beta)*float64(c.At(i, j))))
		}
	}
	return out
}

func makeOperands(rng *rand.Rand, tA, tB Transpose, m, n, k int) (a, b, c *tensor.Matrix) {
	if tA == Trans {
		a = tensor.RandMatrix(rng, k, m, 1)
	} else {
		a = tensor.RandMatrix(rng, m, k, 1)
	}
	if tB == Trans {
		b = tensor.RandMatrix(rng, n, k, 1)
	} else {
		b = tensor.RandMatrix(rng, k, n, 1)
	}
	c = tensor.RandMatrix(rng, m, n, 1)
	return a, b, c
}

func checkImpl(t *testing.T, impl Impl, tA, tB Transpose, m, n, k int, alpha, beta float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*1000003 + n*1009 + k)))
	a, b, c := makeOperands(rng, tA, tB, m, n, k)
	want := gemmRef(tA, tB, alpha, a, b, beta, c)
	got := c.Clone()
	GemmWith(Config{Impl: impl, Threads: 3, MC: 24, KC: 16, NC: 20}, tA, tB, alpha, a, b, beta, got)
	tol := 1e-3 * float64(k+1)
	if !tensor.EqualApprox(got, want, tol) {
		t.Fatalf("impl=%d tA=%v tB=%v %dx%dx%d alpha=%v beta=%v: max diff %g",
			impl, tA, tB, m, n, k, alpha, beta, tensor.MaxAbsDiff(got, want))
	}
}

// gemmShapes is the M×N×K grid the correctness tests sweep: degenerate,
// sub-tile, exact-tile and fringe shapes in every dimension.
var gemmShapes = [][3]int{
	{1, 1, 1}, {2, 3, 4}, {8, 4, 16}, {8, 8, 8}, {7, 5, 3}, {9, 13, 17},
	{16, 16, 16}, {33, 29, 31}, {64, 48, 40}, {1, 64, 64}, {64, 1, 64}, {64, 64, 1},
}

func TestGemmAllImplsAllTransposes(t *testing.T) {
	kernelModes(t, func(t *testing.T) {
		for _, impl := range []Impl{Naive, Blocked, Parallel} {
			for _, tA := range []Transpose{NoTrans, Trans} {
				for _, tB := range []Transpose{NoTrans, Trans} {
					for _, s := range gemmShapes {
						checkImpl(t, impl, tA, tB, s[0], s[1], s[2], 1, 0)
					}
				}
			}
		}
	})
}

func TestGemmAlphaBeta(t *testing.T) {
	cases := []struct{ alpha, beta float32 }{
		{1, 1}, {2, 0}, {0.5, -1}, {0, 1}, {-1, 0.25}, {0, 0},
	}
	kernelModes(t, func(t *testing.T) {
		for _, impl := range []Impl{Naive, Blocked, Parallel} {
			for _, cse := range cases {
				checkImpl(t, impl, NoTrans, NoTrans, 19, 23, 29, cse.alpha, cse.beta)
				checkImpl(t, impl, Trans, Trans, 19, 23, 29, cse.alpha, cse.beta)
			}
		}
	})
}

// Property: blocked and parallel results agree exactly with each other
// (deterministic accumulation order, independent of thread count).
func TestGemmDeterministicAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a, b, c := makeOperands(rng, NoTrans, NoTrans, 61, 53, 47)
	ref := c.Clone()
	GemmWith(Config{Impl: Blocked, MC: 16, KC: 8, NC: 12}, NoTrans, NoTrans, 1, a, b, 1, ref)
	for threads := 1; threads <= 8; threads *= 2 {
		got := c.Clone()
		GemmWith(Config{Impl: Parallel, Threads: threads, MC: 16, KC: 8, NC: 12}, NoTrans, NoTrans, 1, a, b, 1, got)
		if tensor.MaxAbsDiff(got, ref) != 0 {
			t.Fatalf("threads=%d: parallel result differs from single-threaded", threads)
		}
	}
}

// Property: GEMM is linear in A: (A1+A2)B == A1·B + A2·B.
func TestGemmLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seedM, seedN, seedK uint8) bool {
		m, n, k := int(seedM%24)+1, int(seedN%24)+1, int(seedK%24)+1
		a1 := tensor.RandMatrix(rng, m, k, 1)
		a2 := tensor.RandMatrix(rng, m, k, 1)
		b := tensor.RandMatrix(rng, k, n, 1)
		sum := a1.Clone()
		for i := range sum.Data {
			sum.Data[i] += a2.Data[i]
		}
		c1 := tensor.NewMatrix(m, n)
		GemmWith(Config{Impl: Blocked, MC: 8, KC: 8, NC: 8}, NoTrans, NoTrans, 1, sum, b, 0, c1)
		c2 := tensor.NewMatrix(m, n)
		GemmWith(Config{Impl: Blocked, MC: 8, KC: 8, NC: 8}, NoTrans, NoTrans, 1, a1, b, 0, c2)
		GemmWith(Config{Impl: Blocked, MC: 8, KC: 8, NC: 8}, NoTrans, NoTrans, 1, a2, b, 1, c2)
		return tensor.EqualApprox(c1, c2, 1e-3*float64(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: identity is a GEMM unit: I·B == B.
func TestGemmIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seedN uint8) bool {
		n := int(seedN%32) + 1
		id := tensor.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		b := tensor.RandMatrix(rng, n, n, 1)
		c := tensor.NewMatrix(n, n)
		Gemm(NoTrans, NoTrans, 1, id, b, 0, c)
		return tensor.EqualApprox(c, b, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmAutoDispatch(t *testing.T) {
	// Auto must give correct results both below and above the size cutoff.
	checkImpl(t, Auto, NoTrans, NoTrans, 4, 4, 4, 1, 0)
	checkImpl(t, Auto, NoTrans, Trans, 80, 80, 80, 1, 0.5)
}

func TestGemmDimensionMismatch(t *testing.T) {
	a := tensor.NewMatrix(2, 3)
	b := tensor.NewMatrix(4, 5) // inner dim mismatch
	c := tensor.NewMatrix(2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dimension mismatch")
		}
	}()
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
}

func TestGemmOutputShapeMismatch(t *testing.T) {
	a := tensor.NewMatrix(2, 3)
	b := tensor.NewMatrix(3, 5)
	c := tensor.NewMatrix(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on output shape mismatch")
		}
	}()
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
}

func TestGemmOnViews(t *testing.T) {
	// Operands with stride > cols (views) must work in every impl.
	rng := rand.New(rand.NewSource(13))
	big := tensor.RandMatrix(rng, 40, 40, 1)
	a := big.View(2, 3, 17, 11)
	b := big.View(5, 7, 11, 13)
	cBig := tensor.RandMatrix(rng, 30, 30, 1)
	c := cBig.View(1, 1, 17, 13)
	want := gemmRef(NoTrans, NoTrans, 1, a, b, 1, c)
	for _, impl := range []Impl{Naive, Blocked, Parallel} {
		cc := cBig.Clone().View(1, 1, 17, 13)
		GemmWith(Config{Impl: impl, MC: 8, KC: 8, NC: 8, Threads: 2}, NoTrans, NoTrans, 1, a, b, 1, cc)
		if !tensor.EqualApprox(cc, want, 1e-3) {
			t.Fatalf("impl %d wrong on views", impl)
		}
	}
}

func TestGemmEmpty(t *testing.T) {
	a := tensor.NewMatrix(0, 5)
	b := tensor.NewMatrix(5, 3)
	c := tensor.NewMatrix(0, 3)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c) // must not panic
	a2 := tensor.NewMatrix(3, 0)
	b2 := tensor.NewMatrix(0, 2)
	c2 := tensor.NewMatrix(3, 2)
	c2.Fill(7)
	Gemm(NoTrans, NoTrans, 1, a2, b2, 0, c2)
	if c2.At(0, 0) != 0 {
		t.Fatal("k=0 with beta=0 must zero C")
	}
}
