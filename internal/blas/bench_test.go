package blas

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The GEMM ablation benchmarks mirror §V-A's tuning levels: naive loop →
// blocked/packed kernel → cooperative parallel kernel, plus the skinny
// shapes typical of DNN layers (batch × in → batch × out).
func benchGemm(b *testing.B, impl Impl, threads, m, n, k int) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandMatrix(rng, m, k, 1)
	bb := tensor.RandMatrix(rng, k, n, 1)
	c := tensor.NewMatrix(m, n)
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmWith(Config{Impl: impl, Threads: threads}, NoTrans, NoTrans, 1, a, bb, 0, c)
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkGEMMNaive256(b *testing.B)   { benchGemm(b, Naive, 1, 256, 256, 256) }
func BenchmarkGEMMBlocked256(b *testing.B) { benchGemm(b, Blocked, 1, 256, 256, 256) }

// BenchmarkGEMMBlockedPortable256 is Blocked256 on the portable Go
// micro-kernel: the ablation row without the SIMD kernel.
func BenchmarkGEMMBlockedPortable256(b *testing.B) {
	withPortableKernel(b)
	benchGemm(b, Blocked, 1, 256, 256, 256)
}

func BenchmarkGEMMParallel256(b *testing.B) {
	for _, th := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			benchGemm(b, Parallel, th, 256, 256, 256)
		})
	}
}

// BenchmarkMicroKernel runs one 8×8 tile update over L1-resident packed
// panels (kc = 256): the kernel's own rate, the ceiling blocked GEMM
// approaches.
func BenchmarkMicroKernel(b *testing.B) {
	const kc = defaultKC
	ap := make([]float32, kc*mr)
	bp := make([]float32, kc*nr)
	c := make([]float32, mr*nr)
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microKernel(kc, ap, bp, c, nr, 1)
		}
		b.ReportMetric(2*mr*nr*kc*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	}
	if useFMA {
		b.Run("fma", run)
	}
	b.Run("portable", func(b *testing.B) {
		withPortableKernel(b)
		run(b)
	})
}

func BenchmarkGEMMBlocked512(b *testing.B)  { benchGemm(b, Blocked, 1, 512, 512, 512) }
func BenchmarkGEMMParallel512(b *testing.B) { benchGemm(b, Parallel, 0, 512, 512, 512) }

// DNN-shaped GEMMs: minibatch 512, layer 1024→1024 and the small-K
// output-layer shape the paper's tuning section calls out.
func BenchmarkGEMMLayerShape(b *testing.B)  { benchGemm(b, Parallel, 0, 512, 1024, 1024) }
func BenchmarkGEMMSmallK(b *testing.B)      { benchGemm(b, Parallel, 0, 512, 512, 40) }
func BenchmarkGEMMSmallMatrix(b *testing.B) { benchGemm(b, Blocked, 1, 32, 32, 32) }

func BenchmarkAxpy(b *testing.B) {
	x := make([]float32, 1<<16)
	y := make([]float32, 1<<16)
	b.SetBytes(int64(8 * len(x)))
	for i := 0; i < b.N; i++ {
		Axpy(0.5, x, y)
	}
}

func BenchmarkDot(b *testing.B) {
	x := make([]float32, 1<<16)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(8 * len(x)))
	for i := 0; i < b.N; i++ {
		Dot(x, x)
	}
}
