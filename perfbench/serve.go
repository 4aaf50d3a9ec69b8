package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	serveUtts = 120 // corpus the request rows are spliced from
	// serveClients is the closed loop's client count, each waiting for its
	// reply: enough to keep a full batch in flight on every scoring worker.
	// With half as many, one batch is in flight at a time, a vCPU idles
	// while it is scored, and on a 2-vCPU VM the throughput then switches
	// for seconds at a time between two levels 40% apart (24k and 34k
	// requests/s), following the cost of waking the idle vCPU.
	serveClients = serve.DefaultWorkers * serve.DefaultMaxBatch
	// serveRate is the open loop's Poisson arrivals per second, about a
	// twelfth of capacity. At 8000/s a stall of the host for 32 ms, the
	// default queue of 256 requests, sheds requests: one run in five at
	// 12–17% host steal lost 71.
	serveRate   = 4000
	serveBlock  = 1024 // closed-loop requests in one fixed block of work
	serveTarget = 8192 // replies a cold server must return for time_to_target_s
	// A round of the untraced measurement runs a closed-loop segment of
	// serveSegment after the cold start, then an open-loop window of
	// serveSegment's worth of arrivals.
	serveSegment = time.Second
	// checkEvery samples one request in this many for the bit-identity check.
	checkEvery = 97
)

var serveSizes = []int{featDim * (2*context + 1), 128, 128, numStates}

// serveInputs are a serve run's generated inputs: a Glorot checkpoint and
// the request rows with their frame labels.
type serveInputs struct {
	ck  *core.Checkpoint
	net *nn.Network
	x   *tensor.Matrix
	y   []int
}

// newServeInputs draws the checkpoint and the requests from seed.
func newServeInputs(seed int64) serveInputs {
	c := corpus.Generate(corpusConfig(seed, serveUtts))
	x, y := corpus.SpliceFrames(c.Utts, featDim, context)
	net := nn.New(nn.NewTopology(serveSizes...))
	net.InitGlorot(rand.New(rand.NewSource(seed)))
	ck := &core.Checkpoint{Sizes: serveSizes, Params: net.Params.Clone(), Criterion: core.CrossEntropy}
	return serveInputs{ck: ck, net: net, x: x, y: y}
}

// outcome is one request as a client saw it.
type outcome struct {
	lat  time.Duration // from due (open loop) or send (closed loop) to reply
	err  error
	loss float64 // cross-entropy of the reply against the row's label
}

// serveRun is the state of one serve measurement.
type serveRun struct {
	in    serveInputs
	srv   *serve.Server
	rec   *spanRecorder
	mu    sync.Mutex
	kept  map[int][]float32 // sampled replies for the bit-identity check
	seedK int               // which residue mod checkEvery is sampled
}

// score sends row idx and records its outcome; out is the caller's buffer.
func (r *serveRun) score(idx int, out []float32, phase uint64, run string) outcome {
	row := idx % r.in.x.Rows
	start := time.Now()
	err := r.srv.Score(r.in.x.Row(row), out)
	end := time.Now()
	r.rec.add(0, phase, run, "serve.Score", -1, start, end)
	o := outcome{lat: end.Sub(start), err: err}
	if err == nil {
		o.loss = crossEntropy(out, r.in.y[row])
		if row%checkEvery == r.seedK {
			r.mu.Lock()
			if _, ok := r.kept[row]; !ok {
				r.kept[row] = append([]float32(nil), out...)
			}
			r.mu.Unlock()
		}
	}
	return o
}

// crossEntropy is −log softmax(logits)[label].
func crossEntropy(logits []float32, label int) float64 {
	m := math.Inf(-1)
	for _, v := range logits {
		m = math.Max(m, float64(v))
	}
	s := 0.0
	for _, v := range logits {
		s += math.Exp(float64(v) - m)
	}
	return m + math.Log(s) - float64(logits[label])
}

// closedLoop runs serveClients clients back to back until stop returns
// true, and returns every outcome and the loop's wall time.
func (r *serveRun) closedLoop(stop func(done int64, elapsed time.Duration) bool, phase uint64, run string) ([]outcome, time.Duration) {
	var done atomic.Int64
	var mu sync.Mutex
	var all []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]float32, r.srv.OutputDim())
			var mine []outcome
			for k := 0; !stop(done.Load(), time.Since(start)); k++ {
				mine = append(mine, r.score(c+k*serveClients, out, phase, run))
				done.Add(1)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, time.Since(start)
}

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second, drawn from seed.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends request i at due[i] whether or not earlier ones have
// returned, timing each from its due time. It also returns how late the
// generator dispatched each request.
func (r *serveRun) openLoop(due []time.Duration, phase uint64, run string) ([]outcome, []time.Duration) {
	outs := make([]outcome, len(due))
	late := make([]time.Duration, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < len(due); {
		now := time.Since(start)
		if now < due[i] {
			time.Sleep(due[i] - now)
			continue
		}
		// One goroutine per request: an open loop does not wait for the
		// server, so in-flight requests are bounded only by how far the
		// server falls behind; admission control sheds the excess.
		for ; i < len(due) && due[i] <= now; i++ {
			late[i] = now - due[i]
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out := make([]float32, r.srv.OutputDim())
				o := r.score(i, out, phase, run)
				o.lat = time.Since(start) - due[i]
				outs[i] = o
			}(i)
		}
	}
	wg.Wait()
	return outs, late
}

// latencies returns each outcome's latency in milliseconds, +Inf for a
// failed request, so that it misses any latency limit.
func latencies(outs []outcome) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = math.Inf(1)
		if o.err == nil {
			v[i] = ms(o.lat)
		}
	}
	return v
}

// checkScores compares every sampled reply bit for bit with
// nn.Network.Forward on the same rows.
func (r *serveRun) checkScores(rep *report) {
	if len(r.kept) == 0 {
		rep.fail("no replies were sampled for the bit-identity check")
		return
	}
	rows := make([]int, 0, len(r.kept))
	for row := range r.kept {
		rows = append(rows, row)
	}
	sort.Ints(rows)
	x := tensor.NewMatrix(len(rows), r.in.x.Cols)
	for i, row := range rows {
		copy(x.Row(i), r.in.x.Row(row))
	}
	want := r.in.net.Forward(x).Logits
	for i, row := range rows {
		for j, w := range want.Row(i) {
			if got := r.kept[row][j]; math.Float32bits(got) != math.Float32bits(w) {
				rep.fail("request row %d score[%d] = %v, Forward gives %v", row, j, got, w)
				return
			}
		}
	}
}

// count adds outcomes to the report's attempted and failed counts and
// returns how many succeeded.
func count(rep *report, outs []outcome) int {
	ok := 0
	for _, o := range outs {
		rep.attempted++
		if o.err != nil {
			rep.failed++
		} else {
			ok++
		}
	}
	return ok
}

// coldStart builds a server for the inputs and runs the closed loop until
// serveTarget replies. It returns the time from the start of the build to
// the last of those replies.
func coldStart(in serveInputs, seed int64, rep *report, opts ...serve.Option) (*serveRun, time.Duration, error) {
	start := time.Now()
	srv, err := serve.New(in.ck, opts...)
	if err != nil {
		return nil, 0, err
	}
	r := &serveRun{in: in, srv: srv, kept: map[int][]float32{}, seedK: int(seed % checkEvery)}
	outs, _ := r.closedLoop(func(done int64, _ time.Duration) bool { return done >= serveTarget }, 0, "")
	count(rep, outs)
	return r, time.Since(start), nil
}

// serveRound is one round of the untraced serve measurement.
type serveRound struct {
	coldStart time.Duration // serve.New to the serveTarget-th reply
	closedOK  int           // successful requests of the closed-loop segment
	closed    time.Duration // the segment's wall time
	p50       float64       // open-loop window latency median, ms
	steal     float64       // host steal share over the round
}

// benchServe measures the serve workload with tracing off, in rounds
// until the run's time is spent. Each round draws new inputs from a
// sub-seed, builds a cold server, runs it to serveTarget replies, then a
// closed-loop segment and an open-loop window. The timing metrics count
// only the calm rounds (see calm); the throughput metrics are totals over
// their closed-loop segments.
func benchServe(seed int64, seconds time.Duration, rep *report) {
	var losses []float64
	var rounds []serveRound
	begin := time.Now()
	for i := 0; i < minReps || moreReps(begin, i, seconds); i++ {
		s := subSeed(seed, i)
		host := readHostCPU()
		r, cold, err := coldStart(newServeInputs(s), s, rep)
		if err != nil {
			rep.fail("serve.New: %v", err)
			return
		}
		outs, closed := r.closedLoop(func(_ int64, el time.Duration) bool { return el >= serveSegment }, 0, "")
		ok := count(rep, outs)
		open, _ := r.openLoop(poissonSchedule(s, serveRate, int(serveRate*serveSegment.Seconds())), 0, "")
		count(rep, open)
		for _, o := range open {
			if o.err == nil {
				losses = append(losses, o.loss)
			}
		}
		r.checkScores(rep)
		r.srv.Close()
		lat := latencies(open)
		rd := serveRound{coldStart: cold, closedOK: ok, closed: closed,
			p50: percentile(lat, 50), steal: stealShare(host, readHostCPU())}
		rounds = append(rounds, rd)
		rep.note("round %d at %.1f%% steal: cold start %.4fs, closed loop %.0f requests/s, open loop p50 %.3g ms, p99 %.3g ms",
			i, 100*rd.steal, cold.Seconds(), float64(ok)/closed.Seconds(), rd.p50, percentile(lat, 99))
	}
	setup, err := timeSetups(func(i int) (time.Duration, error) {
		start := time.Now()
		srv, err := serve.New(newServeInputs(subSeed(seed, i)).ck)
		d := time.Since(start)
		if err == nil {
			srv.Close()
		}
		return d, err
	})
	if err != nil {
		rep.fail("serve.New: %v", err)
		return
	}

	var steals, colds, p50s []float64
	for _, rd := range rounds {
		steals = append(steals, rd.steal)
	}
	keep, n := calm(steals)
	var ok int
	var closed time.Duration
	for i, rd := range rounds {
		if keep[i] {
			colds = append(colds, rd.coldStart.Seconds())
			p50s = append(p50s, rd.p50)
			ok += rd.closedOK
			closed += rd.closed
		}
	}
	rep.note("%d of %d rounds count for timing (steal at most %.1f%%)", n, len(rounds), 100*math.Max(median(steals), quietSteal))
	rep.set("setup_s", setup)
	rep.set("time_to_target_s", mean(colds))
	rep.set("train_s", closed.Seconds()*serveBlock/float64(ok))
	rep.set("capacity_rps", float64(ok)/closed.Seconds())
	rep.set("heldout_loss", mean(losses))
	rep.set("latency_p50_ms", median(p50s))
}

// traceServe makes the traced measurement of the serve workload: an
// untraced and a traced closed loop for the overhead, then a traced open
// loop with the server's registry, a queue-depth sampler and the heap
// probe attached. Spans: one per phase, each Score call under its phase.
func traceServe(seed int64, seconds time.Duration, rep *report, rec *spanRecorder) {
	in := newServeInputs(seed)
	ob := &obs.Observer{Metrics: obs.NewRegistry()}
	r, _, err := coldStart(in, seed, rep, serve.WithObserver(ob))
	if err != nil {
		rep.fail("serve.New: %v", err)
		return
	}
	defer r.srv.Close()
	phaseLen := seconds / 5
	capacity := func(traced bool, name string) float64 {
		var id uint64
		r.rec = nil
		if traced {
			r.rec, id = rec, rec.newID()
		}
		start := time.Now()
		outs, el := r.closedLoop(func(_ int64, el time.Duration) bool { return el >= phaseLen }, id, name)
		r.rec.add(id, 0, name, name, -1, start, time.Now())
		count(rep, outs)
		return float64(len(outs)) / el.Seconds()
	}
	plain := []float64{capacity(false, ""), capacity(false, "")}
	traced := []float64{capacity(true, "closed-loop"), capacity(true, "closed-loop")}
	rep.set("trace.overhead_pct", (median(plain)/median(traced)-1)*100)

	// The traced open loop: every serve-layer counter is read as a delta
	// over this phase.
	reg := ob.Registry()
	before := map[string]int64{}
	for _, c := range []string{"serve.batches", "serve.flush_full", "serve.shed", "serve.requests"} {
		before[c] = reg.Counter(c).Value()
	}
	rowsBefore, batchesBefore := reg.Histogram("serve.batch_rows").Sum(), reg.Histogram("serve.batch_rows").Count()
	gemm := obs.NewRegistry()
	blas.EnableMetrics(gemm)
	var depthMax atomic.Int64
	stopDepth := make(chan struct{})
	var depthWG sync.WaitGroup
	depthWG.Add(1)
	go func() {
		defer depthWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopDepth:
				return
			case <-tick.C:
				if d := int64(r.srv.QueueDepth()); d > depthMax.Load() {
					depthMax.Store(d)
				}
			}
		}
	}()
	probe := startMemProbe()
	due := poissonSchedule(seed, serveRate, int(serveRate*(seconds*2/5).Seconds()))
	r.rec = rec
	phase := rec.newID()
	start := time.Now()
	open, late := r.openLoop(due, phase, "open-loop")
	rec.add(phase, 0, "open-loop", "open-loop", -1, start, time.Now())
	mem := probe.stop()
	close(stopDepth)
	depthWG.Wait()
	blas.DisableMetrics()
	count(rep, open)
	r.checkScores(rep)

	kreq := float64(len(open)) / 1000
	batches := float64(reg.Counter("serve.batches").Value() - before["serve.batches"])
	rep.set("serve.batches", batches/kreq)
	rep.set("serve.batch_rows.mean", ratio(float64(reg.Histogram("serve.batch_rows").Sum()-rowsBefore),
		float64(reg.Histogram("serve.batch_rows").Count()-batchesBefore)))
	rep.set("serve.flush_full_ratio", ratio(float64(reg.Counter("serve.flush_full").Value()-before["serve.flush_full"]), batches))
	rep.set("serve.shed", float64(reg.Counter("serve.shed").Value()-before["serve.shed"]))
	rep.set("serve.queue_depth.max", float64(depthMax.Load()))
	var lateMs []float64
	for _, l := range late {
		lateMs = append(lateMs, ms(l))
	}
	rep.set("serve.gen_late_ms.p50", percentile(lateMs, 50))
	rep.set("serve.gen_late_ms.max", maxOf(lateMs))
	rep.set("serve.latency_p99_ms", percentile(latencies(open), 99))

	rep.set("blas.gemm.calls", float64(gemm.Counter("blas.gemm.calls").Value())/kreq)
	rows := int(math.Round(rep.metrics["serve.batch_rows.mean"]))
	if rows < 1 {
		rows = 1
	}
	for cl, s := range classShapes(serveSizes, []int{rows, 1}, false) {
		rep.set("blas.gemm.gflop."+cl.String(), float64(gemm.Counter("blas.gemm.flops."+cl.String()).Value())/1e9/kreq)
		rep.set("blas.gemm.gflops."+cl.String(), gemmGFLOPS(s))
	}
	rep.set("blas.gemm.gflops.peak", peakGFLOPS())
	setForwardInto(rep, nn.NewTopology(serveSizes...), seed)

	rep.set("runtime.alloc_mb_per_iter", float64(mem.allocBytes)/1e6/kreq)
	rep.set("runtime.gc_count", float64(mem.numGC))
	rep.set("runtime.gc_pause_ms", ms(mem.pause))
	rep.set("runtime.heap_peak_mb", float64(mem.heapPeak)/1e6)
	rep.note("traced open loop: %d requests, %d spans", len(open), rec.len())
}
