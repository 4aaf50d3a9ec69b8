package blas

// Workspace holds the packing buffers the blocked GEMM normally
// allocates per call, so a caller with a steady stream of same-shaped
// products (the inference runtime's batched forward passes) can reuse
// them and keep its hot path off the allocator. A Workspace serves one
// goroutine: GemmWith only consults it on the single-worker blocked
// path, and two concurrent calls sharing one would race on the panels.
//
// The zero value is ready to use; panels grow to the largest product
// seen and then stay, so calls are allocation-free at steady state.
type Workspace struct {
	a, b []float32
	// apanels is the single-element per-worker panel table handed to
	// gemmBlocked, cached so steady-state calls reuse its backing array.
	apanels [][]float32
}

// panels returns the packed-A panel table (one worker) and packed-B
// panel for a blocked m×n×k product under block limits mc/kc/nc,
// growing the backing buffers if this product is the largest yet.
func (w *Workspace) panels(mc, kc, nc, m, k, n int) ([][]float32, []float32) {
	needA, needB := panelSizes(mc, kc, nc, m, k, n)
	if cap(w.a) < needA {
		w.a = make([]float32, needA)
	}
	if cap(w.b) < needB {
		w.b = make([]float32, needB)
	}
	if len(w.apanels) != 1 {
		w.apanels = make([][]float32, 1)
	}
	w.apanels[0] = w.a[:needA]
	return w.apanels, w.b[:needB]
}
