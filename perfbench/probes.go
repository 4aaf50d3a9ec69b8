package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// --- mpi: a timing Transport decorator ---

// linkStats counts one rank's transport traffic. Send and Recv may run on
// different goroutines of the rank, so every field is atomic.
type linkStats struct {
	sends, recvs         atomic.Int64
	sendBytes, recvBytes atomic.Int64
	sendNs, recvNs       atomic.Int64
}

// timedTransport forwards every call to the wrapped transport unchanged
// and records its count, bytes and blocked time, plus one span per call
// under the rank's run span when a recorder is attached.
type timedTransport struct {
	mpi.Transport
	st     *linkStats
	rec    *spanRecorder
	run    string
	parent uint64
}

func (t *timedTransport) Send(dst, tag int, data []byte) error {
	start := time.Now()
	err := t.Transport.Send(dst, tag, data)
	end := time.Now()
	t.st.sends.Add(1)
	t.st.sendBytes.Add(int64(len(data)))
	t.st.sendNs.Add(int64(end.Sub(start)))
	t.rec.add(0, t.parent, t.run, "mpi.send", t.Rank(), start, end)
	return err
}

func (t *timedTransport) Recv(src, tag int) (mpi.Message, error) {
	start := time.Now()
	msg, err := t.Transport.Recv(src, tag)
	end := time.Now()
	t.st.recvs.Add(1)
	t.st.recvBytes.Add(int64(len(msg.Data)))
	t.st.recvNs.Add(int64(end.Sub(start)))
	t.rec.add(0, t.parent, t.run, "mpi.recv", t.Rank(), start, end)
	return msg, err
}

// --- hf: a timing Objective decorator ---

// objCall accumulates the calls of one Objective method.
type objCall struct {
	calls int
	dur   time.Duration
	alloc uint64 // heap bytes allocated inside the calls
}

// timedObjective forwards every hf.Objective call to the wrapped
// objective and times it. Optimize calls an objective from one goroutine,
// so the counters need no locking.
type timedObjective struct {
	obj    hf.Objective
	calls  map[string]*objCall
	rec    *spanRecorder
	run    string
	parent uint64
}

// decorate wraps obj; the result also implements hf.Preconditioned when
// obj does, so the optimizer takes the same branches either way.
func decorate(obj hf.Objective, rec *spanRecorder, run string, parent uint64) *timedObjective {
	return &timedObjective{obj: obj, calls: map[string]*objCall{}, rec: rec, run: run, parent: parent}
}

// objective returns t as the hf.Objective to optimize.
func (t *timedObjective) objective() hf.Objective {
	if p, ok := t.obj.(hf.Preconditioned); ok {
		return timedPreconditioned{t, p}
	}
	return t
}

// total is the time spent inside all objective calls.
func (t *timedObjective) total() time.Duration {
	var d time.Duration
	for _, c := range t.calls {
		d += c.dur
	}
	return d
}

// time runs fn as one call of the named method.
func (t *timedObjective) time(name string, fn func()) {
	c := t.calls[name]
	if c == nil {
		c = &objCall{}
		t.calls[name] = c
	}
	a0 := heapAllocBytes()
	start := time.Now()
	fn()
	end := time.Now()
	c.alloc += heapAllocBytes() - a0
	c.calls++
	c.dur += end.Sub(start)
	t.rec.add(0, t.parent, t.run, "hf.objective."+name, -1, start, end)
}

func (t *timedObjective) Dim() int { return t.obj.Dim() }

func (t *timedObjective) Params() (p tensor.Vector) {
	t.time("params", func() { p = t.obj.Params() })
	return p
}

func (t *timedObjective) SetParams(p tensor.Vector) {
	t.time("set_params", func() { t.obj.SetParams(p) })
}

func (t *timedObjective) Gradient() (g tensor.Vector) {
	t.time("gradient", func() { g = t.obj.Gradient() })
	return g
}

func (t *timedObjective) NewCurvatureSample(iter int) {
	t.time("curvature_sample", func() { t.obj.NewCurvatureSample(iter) })
}

func (t *timedObjective) GNProduct(v, out tensor.Vector) {
	t.time("gn_product", func() { t.obj.GNProduct(v, out) })
}

func (t *timedObjective) HeldOutLoss(p tensor.Vector) (l float64) {
	t.time("heldout_loss", func() { l = t.obj.HeldOutLoss(p) })
	return l
}

type timedPreconditioned struct {
	*timedObjective
	p hf.Preconditioned
}

func (t timedPreconditioned) CurvatureDiag(lambda float64) (d tensor.Vector) {
	t.time("curvature_diag", func() { d = t.p.CurvatureDiag(lambda) })
	return d
}

// --- runtime: allocation, GC and heap probes ---

// heapAllocBytes is the process's cumulative heap allocation, read
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// memDelta is the runtime.ReadMemStats difference across a measured
// region, plus the highest heap seen by a sampler during it.
type memDelta struct {
	allocBytes uint64
	numGC      uint32
	pause      time.Duration
	heapPeak   uint64
}

// memProbe samples the live heap every few milliseconds until stop.
type memProbe struct {
	before runtime.MemStats
	peak   atomic.Uint64
	done   chan struct{}
	wg     sync.WaitGroup
}

func startMemProbe() *memProbe {
	p := &memProbe{done: make(chan struct{})}
	runtime.ReadMemStats(&p.before)
	p.peak.Store(p.before.HeapAlloc)
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				metrics.Read(heap)
				if v := heap[0].Value.Uint64(); v > p.peak.Load() {
					p.peak.Store(v)
				}
			}
		}
	}()
	return p
}

func (p *memProbe) stop() memDelta {
	close(p.done)
	p.wg.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	peak := p.peak.Load()
	if after.HeapAlloc > peak {
		peak = after.HeapAlloc
	}
	return memDelta{
		allocBytes: after.TotalAlloc - p.before.TotalAlloc,
		numGC:      after.NumGC - p.before.NumGC,
		pause:      time.Duration(after.PauseTotalNs - p.before.PauseTotalNs),
		heapPeak:   peak,
	}
}

// --- blas: direct GEMM timing ---

// gemmShape is one M×N×K product C = op(A)·op(B) with nn's operand
// layout (tA, tB).
type gemmShape struct {
	m, n, k int
	tA, tB  blas.Transpose
}

func (s gemmShape) flops() float64 { return 2 * float64(s.m) * float64(s.n) * float64(s.k) }

// nnGemmShapes lists the GEMM shapes nn issues for one forward pass over
// a batch of the given rows (z = a·Wᵀ per layer) and, when backward is
// set, one backward pass (the weight gradient δᵀ·a per layer and the
// back-propagated δ·W below the first layer).
func nnGemmShapes(sizes []int, rows int, backward bool) []gemmShape {
	var out []gemmShape
	for l := 0; l+1 < len(sizes); l++ {
		in, o := sizes[l], sizes[l+1]
		out = append(out, gemmShape{rows, o, in, blas.NoTrans, blas.Trans})
		if backward {
			out = append(out, gemmShape{o, in, rows, blas.Trans, blas.NoTrans})
			if l > 0 {
				out = append(out, gemmShape{rows, in, o, blas.NoTrans, blas.NoTrans})
			}
		}
	}
	return out
}

// classShapes picks, for each blas shape class, the shape that occurs
// most often across the given batch sizes; ties go to the larger product,
// then to the first listed. A class with no shape gets a fallback of that
// class.
func classShapes(sizes []int, batches []int, backward bool) map[blas.ShapeClass]gemmShape {
	var order []gemmShape
	count := map[gemmShape]int{}
	for _, b := range batches {
		for _, s := range nnGemmShapes(sizes, b, backward) {
			if count[s] == 0 {
				order = append(order, s)
			}
			count[s]++
		}
	}
	best := map[blas.ShapeClass]gemmShape{
		blas.ShapeSmall:  {16, 16, 16, blas.NoTrans, blas.NoTrans},
		blas.ShapeSkinny: {256, 8, 128, blas.NoTrans, blas.NoTrans},
		blas.ShapeLarge:  {128, 128, 128, blas.NoTrans, blas.NoTrans},
	}
	for _, s := range order {
		cl := blas.ClassifyShape(s.m, s.n, s.k)
		b := best[cl]
		if c := count[s]; c > count[b] || c == count[b] && s.flops() > b.flops() {
			best[cl] = s
		}
	}
	return best
}

// gemmGFLOPS times blas.Gemm at one shape and returns the median rate over
// five trials of at least 20 ms each.
func gemmGFLOPS(s gemmShape) float64 {
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandMatrix(rng, s.m, s.k, 1)
	if s.tA {
		a = tensor.RandMatrix(rng, s.k, s.m, 1)
	}
	b := tensor.RandMatrix(rng, s.k, s.n, 1)
	if s.tB {
		b = tensor.RandMatrix(rng, s.n, s.k, 1)
	}
	c := tensor.NewMatrix(s.m, s.n)
	blas.Gemm(s.tA, s.tB, 1, a, b, 0, c) // warm caches and pools
	var rates []float64
	for trial := 0; trial < 5; trial++ {
		reps := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			blas.Gemm(s.tA, s.tB, 1, a, b, 0, c)
			reps++
		}
		rates = append(rates, s.flops()*float64(reps)/time.Since(start).Seconds()/1e9)
	}
	return median(rates)
}

// peakGFLOPS is the best GEMM rate over cache-resident square shapes.
func peakGFLOPS() float64 {
	best := 0.0
	for _, n := range []int{64, 128, 192, 256} {
		if r := gemmGFLOPS(gemmShape{n, n, n, blas.NoTrans, blas.NoTrans}); r > best {
			best = r
		}
	}
	return best
}

// forwardIntoMicros times nn.Network.ForwardInto on rows-row batches and
// returns the median microseconds per call over five trials.
func forwardIntoMicros(net *nn.Network, rows int) float64 {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandMatrix(rng, rows, net.Topo.InputDim(), 1)
	buf := net.Topo.NewInferBuffers(rows)
	net.ForwardInto(buf, x)
	var per []float64
	for trial := 0; trial < 5; trial++ {
		reps := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			net.ForwardInto(buf, x)
			reps++
		}
		per = append(per, float64(time.Since(start).Microseconds())/float64(reps))
	}
	return median(per)
}
