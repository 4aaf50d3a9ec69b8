package blas

import (
	"sync"

	"repro/internal/tensor"
)

// Register-tile dimensions of the micro-kernel. The paper's BG/Q inner
// kernel updates an 8×8 C tile with QPX outer products; the AVX2 kernel
// does the same with one 8-lane YMM accumulator per tile row.
const (
	mr = 8
	nr = 8
)

// gemmBlocked runs the packed, cache-blocked algorithm with the given
// number of worker goroutines cooperating on each packed B panel.
func gemmBlocked(cfg Config, tA, tB Transpose, alpha float32, a, b *tensor.Matrix, beta float32, c *tensor.Matrix, threads int) {
	m, k := opDims(a, tA)
	_, n := opDims(b, tB)
	scaleC(beta, c)
	// BLAS semantics: alpha=0 means "skip the product entirely", an exact
	// sentinel the caller sets literally, not a computed value.
	//lint:ignore floateq alpha==0 is the exact BLAS fast-path sentinel
	if m == 0 || n == 0 || k == 0 || alpha == 0 {
		return
	}

	mc, kc, nc := cfg.MC, cfg.KC, cfg.NC
	nWorkers := threads
	if blocks := (m + mc - 1) / mc; nWorkers > blocks {
		nWorkers = blocks
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	var abufs [][]float32
	var bbuf []float32
	if ws := cfg.Workspace; ws != nil && nWorkers == 1 {
		// Caller-owned panels: no per-call allocation once the workspace
		// has grown to the largest product it serves.
		abufs, bbuf = ws.panels(mc, kc, nc, m, k, n)
	} else {
		needA, needB := panelSizes(mc, kc, nc, m, k, n)
		bbuf = make([]float32, needB)
		abufs = make([][]float32, nWorkers)
		for w := range abufs {
			abufs[w] = make([]float32, needA)
		}
	}

	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			packB(b, tB, pc, jc, kcb, ncb, bbuf)

			if nWorkers == 1 {
				for ic := 0; ic < m; ic += mc {
					mcb := min(mc, m-ic)
					packA(a, tA, ic, pc, mcb, kcb, abufs[0])
					macroKernel(abufs[0], bbuf, c, ic, jc, mcb, ncb, kcb, alpha)
				}
				continue
			}
			// The MC blocks of A are independent: fan them out across
			// workers that share the packed B panel, the analogue of the
			// paper's threads cooperating on a shared operand stream.
			var wg sync.WaitGroup
			blockCh := make(chan int)
			for w := 0; w < nWorkers; w++ {
				wg.Add(1)
				// Loop-varying state rides in as parameters, not captures:
				// a captured loop variable is heap-allocated per iteration,
				// which would charge the single-worker path (it shares this
				// loop) with allocations for goroutines it never launches.
				go func(abuf, bpanel []float32, pc, jc, kcb, ncb int) {
					defer wg.Done()
					for ic := range blockCh {
						mcb := min(mc, m-ic)
						packA(a, tA, ic, pc, mcb, kcb, abuf)
						macroKernel(abuf, bpanel, c, ic, jc, mcb, ncb, kcb, alpha)
					}
				}(abufs[w], bbuf, pc, jc, kcb, ncb)
			}
			for ic := 0; ic < m; ic += mc {
				blockCh <- ic
			}
			close(blockCh)
			wg.Wait()
		}
	}
}

// packBounds is the cold fail-fast for the geometry guards below: the
// guards are unreachable for well-formed matrices and pack buffers, and
// hoisting the panic keeps the hot bodies small enough to inline.
//
//go:noinline
func packBounds() {
	panic("blas: packed-panel geometry out of range")
}

// packA copies the mc×kc block of op(A) at (i0, p0) into panels of mr rows
// in k-major order, zero-padding the final partial panel. The packed
// layout guarantees stride-one access in the micro-kernel, the portable
// equivalent of the paper's reformatting of A for the L1P prefetch engine.
//
// Every loop is structured as a cursor advance behind a uint guard so
// the compiler's prove pass eliminates all per-element bounds checks;
// the bce gate (internal/lint/escape) keeps it that way.
//
//lint:hotpath
func packA(a *tensor.Matrix, tA Transpose, i0, p0, mc, kc int, buf []float32) {
	for ip := 0; ip < mc; ip += mr {
		rows := min(mr, mc-ip)
		po := (ip / mr) * kc * mr
		if uint(po) > uint(len(buf)) {
			packBounds()
			return
		}
		panel := buf[po:]
		if tA == NoTrans {
			for r := 0; r < rows; r++ {
				so := (i0+ip+r)*a.Stride + p0
				if uint(so) > uint(len(a.Data)) {
					packBounds()
					return
				}
				scatterMR(panel, r, a.Data[so:], kc)
			}
		} else {
			// op(A)[i][p] = A[p][i]: walk A rows (p) contiguously.
			so := p0*a.Stride + i0 + ip
			if uint(so) > uint(len(a.Data)) {
				packBounds()
				return
			}
			src := a.Data[so:]
			d := panel
			for p := 0; p < kc; p++ {
				if p > 0 {
					if uint(a.Stride) > uint(len(src)) || len(d) < mr {
						packBounds()
						return
					}
					src = src[a.Stride:]
					d = d[mr:]
				}
				if uint(rows) > uint(len(src)) || uint(rows) > uint(len(d)) {
					packBounds()
					return
				}
				copy(d[:rows], src[:rows])
			}
		}
		if rows < mr {
			padPanel(panel, rows, mr, kc)
		}
	}
}

// scatterMR stores n consecutive src elements into d at indices r,
// r+mr, r+2·mr, … — one column of a packed A panel. The strided store
// advances a cursor whose slice operations are all justified by the
// loop condition, so the body carries no bounds checks; the final
// element is stored outside the loop because the last cursor position
// may have fewer than mr elements left.
//
//lint:hotpath
func scatterMR(d []float32, r int, src []float32, n int) {
	if uint(r) >= uint(len(d)) {
		packBounds()
		return
	}
	d = d[r:]
	for n > 1 && len(d) >= mr && len(src) > 0 {
		d[0] = src[0]
		d = d[mr:]
		src = src[1:]
		n--
	}
	if n > 0 && len(d) > 0 && len(src) > 0 {
		d[0] = src[0]
	}
}

// padPanel zeroes entries lanes..width-1 of each of the n width-wide
// k-slices of a packed panel — the fringe of a partial tile. The
// countdown with an explicit j >= 0 bound keeps the stores check-free
// without knowing lanes' sign.
//
//lint:hotpath
func padPanel(d []float32, lanes, width, n int) {
	for ; n > 0 && len(d) >= width && width > 0; n-- {
		row := d[:width]
		// Simple down-counting induction (the lanes cut-off is a break, not
		// part of the condition) so prove recognizes 0 <= j < width.
		for j := width - 1; j >= 0; j-- {
			if j < lanes {
				break
			}
			row[j] = 0
		}
		d = d[width:]
	}
}

// packB copies the kc×nc block of op(B) at (p0, j0) into panels of nr
// columns in k-major order, zero-padding the final partial panel. Like
// packA it is written in the guarded-cursor style the bce gate locks in.
//
//lint:hotpath
func packB(b *tensor.Matrix, tB Transpose, p0, j0, kc, nc int, buf []float32) {
	for jp := 0; jp < nc; jp += nr {
		cols := min(nr, nc-jp)
		po := (jp / nr) * kc * nr
		if uint(po) > uint(len(buf)) {
			packBounds()
			return
		}
		panel := buf[po:]
		if tB == NoTrans {
			so := p0*b.Stride + j0 + jp
			if uint(so) > uint(len(b.Data)) {
				packBounds()
				return
			}
			src := b.Data[so:]
			d := panel
			for p := 0; p < kc; p++ {
				if p > 0 {
					if uint(b.Stride) > uint(len(src)) || len(d) < nr {
						packBounds()
						return
					}
					src = src[b.Stride:]
					d = d[nr:]
				}
				if uint(cols) > uint(len(src)) || uint(cols) > uint(len(d)) {
					packBounds()
					return
				}
				copy(d[:cols], src[:cols])
			}
		} else {
			// op(B)[p][j] = B[j][p]: walk B rows (j) contiguously.
			for j := 0; j < cols; j++ {
				so := (j0+jp+j)*b.Stride + p0
				if uint(so) > uint(len(b.Data)) {
					packBounds()
					return
				}
				scatterNR(panel, j, b.Data[so:], kc)
			}
		}
		if cols < nr {
			padPanel(panel, cols, nr, kc)
		}
	}
}

// scatterNR is scatterMR's nr-stride twin: it stores n consecutive src
// elements into d at indices j, j+nr, j+2·nr, … — one row of a packed
// B panel.
//
//lint:hotpath
func scatterNR(d []float32, j int, src []float32, n int) {
	if uint(j) >= uint(len(d)) {
		packBounds()
		return
	}
	d = d[j:]
	for n > 1 && len(d) >= nr && len(src) > 0 {
		d[0] = src[0]
		d = d[nr:]
		src = src[1:]
		n--
	}
	if n > 0 && len(d) > 0 && len(src) > 0 {
		d[0] = src[0]
	}
}

// macroKernel multiplies the packed mc×kc A block by the packed kc×nc B
// panel, accumulating alpha times the product into C at (ic, jc).
//
//lint:hotpath
func macroKernel(abuf, bbuf []float32, c *tensor.Matrix, ic, jc, mc, nc, kc int, alpha float32) {
	for jp := 0; jp < nc; jp += nr {
		cols := min(nr, nc-jp)
		bo := (jp / nr) * kc * nr
		if uint(bo) > uint(len(bbuf)) {
			packBounds()
			return
		}
		bpanel := bbuf[bo:]
		for ip := 0; ip < mc; ip += mr {
			rows := min(mr, mc-ip)
			ao := (ip / mr) * kc * mr
			coff := (ic+ip)*c.Stride + jc + jp
			if uint(ao) > uint(len(abuf)) || uint(coff) > uint(len(c.Data)) {
				packBounds()
				return
			}
			apanel := abuf[ao:]
			if rows == mr && cols == nr {
				microKernel(kc, apanel, bpanel, c.Data[coff:], c.Stride, alpha)
			} else {
				fringeTile(kc, apanel, bpanel, c.Data[coff:], c.Stride, rows, cols, alpha)
			}
		}
	}
}

// microKernel updates one full mr×nr tile of C with the kernel the CPU
// probe selected: C += alpha·A(mr×kc)·B(kc×nr) over packed panels.
//
//lint:hotpath
func microKernel(kc int, ap, bp, c []float32, ldc int, alpha float32) {
	if useFMA {
		microKernelFMA(kc, ap, bp, c, ldc, alpha)
		return
	}
	microKernelGo(kc, ap, bp, c, ldc, alpha)
}

// fringeTile handles a partial tile at the matrix fringe — the "matrices
// with dimensions that do not lend themselves to full SIMDization" case
// the paper tunes for. The packed panels are zero-padded, so the rows×cols
// region of C that exists is copied into a full mr×nr stack tile, updated
// by the same micro-kernel as an interior tile, and copied back. Every C
// element therefore goes through one arithmetic chain wherever it falls:
// a row's result does not depend on its position in the batch, which the
// serving runtime's bit-identity with nn.Forward relies on.
//
//lint:hotpath
func fringeTile(kc int, ap, bp, c []float32, ldc, rows, cols int, alpha float32) {
	var tile [mr * nr]float32
	copyTile(tile[:], nr, c, ldc, rows, cols)
	microKernel(kc, ap, bp, tile[:], nr, alpha)
	copyTile(c, ldc, tile[:], nr, rows, cols)
}

// copyTile copies a rows×cols block between two row-major buffers with
// leading dimensions ldd (dst) and lds (src), walking both row cursors
// behind guards so the copies carry no bounds checks.
//
//lint:hotpath
func copyTile(dst []float32, ldd int, src []float32, lds, rows, cols int) {
	for r := 0; r < rows; r++ {
		if r > 0 {
			if uint(ldd) > uint(len(dst)) || uint(lds) > uint(len(src)) {
				packBounds()
				return
			}
			dst = dst[ldd:]
			src = src[lds:]
		}
		if uint(cols) > uint(len(dst)) || uint(cols) > uint(len(src)) {
			packBounds()
			return
		}
		copy(dst[:cols], src[:cols])
	}
}

// microKernelGo is the portable kernel, used where the CPU probe finds no
// AVX2/FMA. It updates the mr×nr tile as two mr×nr/2 halves: 32 scalar
// accumulators per half is already more than amd64's 16 XMM registers
// hold, and a single 64-accumulator pass would spill twice as much.
//
//lint:hotpath
func microKernelGo(kc int, ap, bp, c []float32, ldc int, alpha float32) {
	if len(c) < nr/2 {
		packBounds()
		return
	}
	microKernelHalf(kc, ap, bp, c, ldc, alpha)
	hi := bp // upper half of each k-slice; microKernelHalf checks its length
	if len(hi) >= nr/2 {
		hi = hi[nr/2:]
	}
	microKernelHalf(kc, ap, hi, c[nr/2:], ldc, alpha)
}

// microKernelHalf is the register-blocked scalar kernel:
// C(mr×4) += alpha·A(mr×kc)·B(kc×4), where the four B columns are the
// first four of each nr-wide k-slice of bp. It runs a sequence of rank-1
// updates, mirroring the paper's outer-product formulation; the 32
// accumulators are locals so the compiler keeps as many as it can in
// registers. The B cursor advances by nr only while a full k-slice
// remains: the upper half's cursor starts nr/2 into the panel, so its
// last slice is short.
//
//lint:hotpath
func microKernelHalf(kc int, ap, bp []float32, c []float32, ldc int, alpha float32) {
	var (
		c00, c01, c02, c03 float32
		c10, c11, c12, c13 float32
		c20, c21, c22, c23 float32
		c30, c31, c32, c33 float32
		c40, c41, c42, c43 float32
		c50, c51, c52, c53 float32
		c60, c61, c62, c63 float32
		c70, c71, c72, c73 float32
	)
	for p := 0; p < kc; p++ {
		if len(ap) < mr || len(bp) < nr/2 {
			packBounds()
			return
		}
		b := bp[: nr/2 : nr/2]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		a := ap[:mr:mr]
		a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
		ap = ap[mr:]
		if len(bp) >= nr {
			bp = bp[nr:]
		}
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		c40 += a4 * b0
		c41 += a4 * b1
		c42 += a4 * b2
		c43 += a4 * b3
		c50 += a5 * b0
		c51 += a5 * b1
		c52 += a5 * b2
		c53 += a5 * b3
		c60 += a6 * b0
		c61 += a6 * b1
		c62 += a6 * b2
		c63 += a6 * b3
		c70 += a7 * b0
		c71 += a7 * b1
		c72 += a7 * b2
		c73 += a7 * b3
	}
	c = storeRow4(c, alpha, c00, c01, c02, c03, ldc)
	c = storeRow4(c, alpha, c10, c11, c12, c13, ldc)
	c = storeRow4(c, alpha, c20, c21, c22, c23, ldc)
	c = storeRow4(c, alpha, c30, c31, c32, c33, ldc)
	c = storeRow4(c, alpha, c40, c41, c42, c43, ldc)
	c = storeRow4(c, alpha, c50, c51, c52, c53, ldc)
	c = storeRow4(c, alpha, c60, c61, c62, c63, ldc)
	// The final row advances by 0: C may end exactly at this tile's edge.
	storeRow4(c, alpha, c70, c71, c72, c73, 0)
}

// storeRow4 accumulates one 4-wide register row into the head of the C
// cursor and returns the cursor advanced by ldc to the next row. The
// single guard justifies both the window and the advance, so the stores
// carry no bounds checks.
//
//lint:hotpath
func storeRow4(c []float32, alpha, v0, v1, v2, v3 float32, ldc int) []float32 {
	if len(c) < 4 || uint(ldc) > uint(len(c)) {
		packBounds()
		return nil
	}
	row := c[:4:4]
	row[0] += alpha * v0
	row[1] += alpha * v1
	row[2] += alpha * v2
	row[3] += alpha * v3
	return c[ldc:]
}

// panelSizes returns the lengths of one packed-A panel and the packed-B
// panel for an m×n×k product under block limits mc/kc/nc: a block never
// exceeds the product, so small products get small panels.
func panelSizes(mc, kc, nc, m, k, n int) (needA, needB int) {
	return roundUp(min(mc, m), mr) * min(kc, k), min(kc, k) * roundUp(min(nc, n), nr)
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }
