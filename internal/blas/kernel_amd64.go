package blas

// useFMA selects the AVX2/FMA micro-kernel. It is set once, from the CPU
// probe, before any GEMM runs; the portable kernel serves CPUs without
// AVX2 and FMA and operating systems that do not save YMM state.
var useFMA = hasAVX2FMA()

// hasAVX2FMA reports whether the CPU implements AVX2 and FMA and the OS
// has enabled the YMM register state (CPUID.1:ECX.OSXSAVE, then XCR0
// bits 1 and 2 via XGETBV).
func hasAVX2FMA() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmOS   = 0b110   // XCR0: SSE and AVX state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmOS != ymmOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with EAX=eaxArg and ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// microKernelFMA is the AVX2/FMA micro-kernel's bounds contract: the
// assembly reads kc·mr packed A and kc·nr packed B elements and updates
// mr rows of nr elements at stride ldc in c, so the guards below are
// exactly what it needs. They are written as divisions so no product can
// overflow.
//
//lint:hotpath
func microKernelFMA(kc int, ap, bp, c []float32, ldc int, alpha float32) {
	if kc < 0 || ldc < 0 || uint(len(ap))/mr < uint(kc) || uint(len(bp))/nr < uint(kc) ||
		len(c) < nr || uint(len(c)-nr)/(mr-1) < uint(ldc) {
		packBounds()
		return
	}
	sgemmKernel8x8(kc, ap, bp, c, ldc, alpha)
}

// The assembly hard-codes the 8×8 tile: this constant only compiles
// while mr and nr are both 8.
const _ = uint(mr-8) + uint(8-mr) + uint(nr-8) + uint(8-nr)

// sgemmKernel8x8 computes C(8×8) += alpha·A(8×kc)·B(kc×8) over packed
// panels: per k step one 8-wide B row is multiplied into eight YMM row
// accumulators by broadcast A elements with VFMADD231PS. The update of
// C is a separate multiply and add, as in the portable kernel.
//
//go:noescape
func sgemmKernel8x8(kc int, a, b, c []float32, ldc int, alpha float32)
