#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// KSTEP is one rank-1 update of the 8×8 tile held in Y0..Y7: the 8-wide
// packed B row at byte offset off(DI) times each of the 8 packed A
// elements at off(SI), broadcast. Y9 and Y10 alternate so consecutive
// broadcasts do not wait on each other's FMA.
#define KSTEP(off) \
	VMOVUPS      off(DI), Y8     \
	VBROADCASTSS off+0(SI), Y9   \
	VFMADD231PS  Y8, Y9, Y0      \
	VBROADCASTSS off+4(SI), Y10  \
	VFMADD231PS  Y8, Y10, Y1     \
	VBROADCASTSS off+8(SI), Y9   \
	VFMADD231PS  Y8, Y9, Y2      \
	VBROADCASTSS off+12(SI), Y10 \
	VFMADD231PS  Y8, Y10, Y3     \
	VBROADCASTSS off+16(SI), Y9  \
	VFMADD231PS  Y8, Y9, Y4      \
	VBROADCASTSS off+20(SI), Y10 \
	VFMADD231PS  Y8, Y10, Y5     \
	VBROADCASTSS off+24(SI), Y9  \
	VFMADD231PS  Y8, Y9, Y6      \
	VBROADCASTSS off+28(SI), Y10 \
	VFMADD231PS  Y8, Y10, Y7

// STOREROW adds alpha·acc (alpha in Y8) to the 8 floats at (DX) and
// advances DX by one C row (BX bytes).
#define STOREROW(acc) \
	VMULPS  Y8, acc, acc \
	VADDPS  (DX), acc, acc \
	VMOVUPS acc, (DX)      \
	ADDQ    BX, DX

// func sgemmKernel8x8(kc int, a, b, c []float32, ldc int, alpha float32)
TEXT ·sgemmKernel8x8(SB), NOSPLIT, $0-92
	MOVQ kc+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DI
	MOVQ c_base+56(FP), DX
	MOVQ ldc+80(FP), BX
	SHLQ $2, BX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	// Four k steps per iteration, then the remaining kc mod 4 one by one.
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   tail

loop4:
	KSTEP(0)
	KSTEP(32)
	KSTEP(64)
	KSTEP(96)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  loop4

tail:
	ANDQ $3, CX
	JZ   store

loop1:
	KSTEP(0)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop1

store:
	VBROADCASTSS alpha+88(FP), Y8
	STOREROW(Y0)
	STOREROW(Y1)
	STOREROW(Y2)
	STOREROW(Y3)
	STOREROW(Y4)
	STOREROW(Y5)
	STOREROW(Y6)
	STOREROW(Y7)
	VZEROUPPER
	RET
