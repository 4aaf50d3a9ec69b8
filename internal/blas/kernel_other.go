//go:build !amd64

package blas

// useFMA is false off amd64: the portable kernel is the only one.
var useFMA = false

// microKernelFMA is never selected off amd64; it exists so the dispatch in
// microKernel compiles on every architecture.
func microKernelFMA(kc int, ap, bp, c []float32, ldc int, alpha float32) {
	microKernelGo(kc, ap, bp, c, ldc, alpha)
}
