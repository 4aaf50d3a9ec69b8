// Package blas is the tuned single-precision matrix library underpinning
// DNN training, standing in for the hand-tuned BG/Q SGEMM of §V-A of the
// paper.
//
// The paper telescopes its GEMM across thread, core and node levels:
// a register-blocked inner kernel, operand packing for stride-one access,
// cache blocking, and cooperative threads. This package mirrors those
// levers:
//
//   - Naive: triple loop, the correctness reference.
//   - Blocked: Goto-style packed panels (MC×KC blocks of A, KC×NC blocks
//     of B) with an 8×8 (MR×NR) register-tile micro-kernel.
//   - Parallel: the blocked algorithm with the MC loop fanned out across
//     goroutines sharing one packed B panel, the analogue of the paper's
//     cores cooperating on a shared operand.
//
// The micro-kernel is the paper's SIMD inner kernel. On amd64 CPUs with
// AVX2 and FMA (and an OS that saves YMM state) it is an assembly kernel
// that keeps the 8×8 tile in eight YMM row accumulators and updates them
// with VBROADCASTSS + VFMADD231PS outer products, the counterpart of the
// 4-wide QPX FMAs on BG/Q. A CPUID/XGETBV probe picks it once at package
// init; there is no knob. Other CPUs and architectures run the portable
// Go kernel, which updates the tile as two 8×4 halves of scalar
// accumulators.
//
// Fringe tiles at the right and bottom edges of C go through the same
// kernel as interior tiles: the existing part of C is copied into a full
// stack tile, updated, and copied back. Every element of C therefore sees
// one arithmetic chain wherever its row falls in the batch, so a row of
// the product is bit-identical across batch sizes — the serving runtime
// relies on this to answer bit-for-bit what nn.Forward computes.
//
// Results are deterministic regardless of thread count: every C element is
// accumulated by exactly one goroutine in a fixed k-order.
package blas

import (
	"fmt"
	"runtime"

	"repro/internal/check"
	"repro/internal/tensor"
)

// Transpose selects op(X) = X or op(X) = Xᵀ in Gemm.
type Transpose bool

const (
	// NoTrans uses the operand as stored.
	NoTrans Transpose = false
	// Trans uses the transpose of the operand.
	Trans Transpose = true
)

// Impl selects a GEMM implementation.
type Impl int

const (
	// Auto picks Parallel for large problems and Blocked for small ones.
	Auto Impl = iota
	// Naive is the unblocked triple loop (reference).
	Naive
	// Blocked is the single-threaded packed/blocked algorithm.
	Blocked
	// Parallel is the multi-goroutine packed/blocked algorithm.
	Parallel
)

// Config carries GEMM tuning parameters. The zero value means Auto
// implementation, GOMAXPROCS threads and default block sizes.
type Config struct {
	Impl    Impl
	Threads int // goroutines for Parallel; <=0 means GOMAXPROCS
	MC      int // rows of A packed per block; <=0 means default
	KC      int // depth of packed panels; <=0 means default
	NC      int // columns of B packed per block; <=0 means default
	// Workspace, when non-nil, supplies reusable packing panels and pins
	// the implementation to the single-threaded blocked path (a
	// workspace serves one goroutine); calls are then allocation-free at
	// steady state. Explicitly selecting Parallel ignores it.
	Workspace *Workspace
}

// Default block sizes, sized for typical L1/L2 footprints: an MR×KC strip
// of packed A (8·256·4 B = 8 KiB) is L1-resident and the KC×NC packed B
// panel (256·512·4 B = 512 KiB) is L2-resident, echoing the paper's
// cache-level operand staging.
const (
	defaultMC = 128
	defaultKC = 256
	defaultNC = 512
)

func (c Config) filled() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.MC <= 0 {
		c.MC = defaultMC
	}
	if c.KC <= 0 {
		c.KC = defaultKC
	}
	if c.NC <= 0 {
		c.NC = defaultNC
	}
	return c
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C with the default
// configuration. op(A) must be M×K, op(B) K×N, and C M×N.
//
//lint:shape a=(m,k) b=(k,n) c=(m,n) tA:swap=a tB:swap=b
func Gemm(tA, tB Transpose, alpha float32, a, b *tensor.Matrix, beta float32, c *tensor.Matrix) {
	if check.Enabled {
		m, k := opDims(a, tA)
		k2, n := opDims(b, tB)
		check.Dims("blas.Gemm.inner", k2, k)
		check.Layout("blas.Gemm.c", c.Rows, c.Cols, m, n)
	}
	GemmWith(Config{}, tA, tB, alpha, a, b, beta, c)
}

// GemmWith is Gemm with explicit tuning parameters.
//
//lint:shape a=(m,k) b=(k,n) c=(m,n) tA:swap=a tB:swap=b
func GemmWith(cfg Config, tA, tB Transpose, alpha float32, a, b *tensor.Matrix, beta float32, c *tensor.Matrix) {
	m, k := opDims(a, tA)
	k2, n := opDims(b, tB)
	if k != k2 {
		panic(fmt.Sprintf("blas: Gemm inner dimensions %d vs %d", k, k2))
	}
	if c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: Gemm output %d×%d, want %d×%d", c.Rows, c.Cols, m, n))
	}
	if gm := metrics.Load(); gm != nil {
		gm.recordGemm(m, n, k)
	}
	cfg = cfg.filled()

	impl := cfg.Impl
	if impl == Auto {
		if cfg.Workspace != nil {
			// A workspace serves one goroutine, so it pins the
			// single-threaded blocked path.
			impl = Blocked
		} else {
			// Small problems do not amortize packing or goroutine startup.
			flops := 2 * float64(m) * float64(n) * float64(k)
			switch {
			case flops < 64*64*64*2:
				impl = Blocked
			default:
				impl = Parallel
			}
		}
	}
	switch impl {
	case Naive:
		gemmNaive(tA, tB, alpha, a, b, beta, c)
	case Blocked:
		gemmBlocked(cfg, tA, tB, alpha, a, b, beta, c, 1)
	case Parallel:
		gemmBlocked(cfg, tA, tB, alpha, a, b, beta, c, cfg.Threads)
	default:
		panic(fmt.Sprintf("blas: unknown Impl %d", impl))
	}
}

// opDims returns the dimensions of op(X).
func opDims(x *tensor.Matrix, t Transpose) (rows, cols int) {
	if t == Trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

// scaleC applies C *= beta, the one-time beta handling shared by the
// blocked implementations.
func scaleC(beta float32, c *tensor.Matrix) {
	switch beta {
	case 1:
	case 0:
		c.Zero()
	default:
		c.Scale(beta)
	}
}
