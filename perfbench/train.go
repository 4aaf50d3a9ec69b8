package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Corpus geometry shared by every workload.
const (
	featDim   = 20
	context   = 2
	numStates = 8
)

// trainSpec defines one training workload.
type trainSpec struct {
	utts   int   // utterances generated (every 10th is held out)
	hidden []int // hidden layer widths
	ranks  int   // master included
	iters  int   // HF iterations per run
	// target is the held-out loss at which time_to_target_s is read.
	target float64
	// batches are the GEMM row counts nn issues most often: the compute
	// chunk, and the curvature-sample tail.
	batches []int
}

var trainSpecs = map[string]trainSpec{
	"train-ce": {
		utts: 120, hidden: []int{128, 128}, ranks: 3, iters: 8, target: 1.1,
		batches: []int{256, 32},
	},
}

// corpusConfig is the synthetic corpus every workload draws its inputs from.
func corpusConfig(seed int64, utts int) corpus.Config {
	return corpus.Config{Seed: seed, NumUtterances: utts, MeanSeconds: 1,
		FeatDim: featDim, Context: context, NumStates: numStates}
}

// subSeed derives the seed of the i-th repetition of a run. Every
// repetition trains on its own corpus, so one run's medians average over
// several inputs, all fixed by the run's seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func (sp trainSpec) sizes(inputDim int) []int {
	sizes := append([]int{inputDim}, sp.hidden...)
	return append(sizes, numStates)
}

func (sp trainSpec) problem(seed int64) core.Problem {
	c := corpus.Generate(corpusConfig(seed, sp.utts))
	train, held := c.Split(10)
	return core.Problem{
		Topo:           nn.NewTopology(sp.sizes(c.InputDim())...),
		Train:          train,
		Heldout:        held,
		Criterion:      core.CrossEntropy,
		SampleFraction: 0.03,
		Seed:           seed,
	}
}

// setup generates the corpus, builds and tears down an inproc fabric (the
// connect cost a spawned session pays inside Run, measured on its own) and
// builds the session.
func (sp trainSpec) setup(seed int64) (core.Problem, *core.Session, time.Duration, error) {
	start := time.Now()
	p := sp.problem(seed)
	mpi.NewInprocFabric(sp.ranks).Close()
	sess, err := core.NewSession(p, core.WithRanks(sp.ranks))
	return p, sess, time.Since(start), err
}

// trainRun is one HF training run as the benchmark saw it.
type trainRun struct {
	wall      time.Duration
	lossAt    []time.Duration // per iteration, since Run started
	losses    []float64       // held-out loss after each iteration
	steal     float64         // host steal share over Run
	res       *core.MasterResult
	trainFrms int
}

// iterDurations splits the run into per-iteration wall times.
func (r trainRun) iterDurations() []time.Duration {
	var out []time.Duration
	prev := time.Duration(0)
	for _, t := range r.lossAt {
		out = append(out, t-prev)
		prev = t
	}
	return out
}

// timeToTarget returns the time from the start of Run to the end of the
// first iteration whose held-out loss reaches target, or false when none
// does.
func (r trainRun) timeToTarget(target float64) (time.Duration, bool) {
	for i, l := range r.losses {
		if l <= target {
			return r.lossAt[i], true
		}
	}
	return 0, false
}

// hfConfig returns the optimizer settings with a telemetry hook that
// stamps each iteration's held-out loss relative to start.
func (sp trainSpec) hfConfig(run *trainRun, start *time.Time) hf.Config {
	return hf.Config{
		MaxIterations: sp.iters,
		Telemetry: func(st hf.IterStats) {
			run.lossAt = append(run.lossAt, time.Since(*start))
			run.losses = append(run.losses, st.Loss)
		},
	}
}

// checkRun applies the training correctness checks to one run: finite
// final loss below the initial loss, above-chance held-out accuracy and
// one telemetry record per iteration.
func (sp trainSpec) checkRun(rep *report, p core.Problem, run trainRun, label string) {
	res := run.res
	final := res.HF.FinalLoss
	if len(run.losses) != len(res.HF.Iters) || len(run.losses) == 0 {
		rep.fail("%s: %d telemetry records for %d iterations", label, len(run.losses), len(res.HF.Iters))
		return
	}
	obj, err := core.NewSerialObjective(p)
	if err != nil {
		rep.fail("%s: serial objective: %v", label, err)
		return
	}
	initial := obj.HeldOutLoss(obj.Params())
	if math.IsNaN(final) || math.IsInf(final, 0) || !(final < initial) {
		rep.fail("%s: final held-out loss %v not finite and below initial %v", label, final, initial)
	}
	if chance := 1.0 / numStates; !(res.HeldOutAccuracy > chance) {
		rep.fail("%s: held-out accuracy %.4f not above chance %.4f", label, res.HeldOutAccuracy, chance)
	}
}

// runUntraced performs one spawned-session training run.
func (sp trainSpec) runUntraced(sess *core.Session, p core.Problem) (trainRun, error) {
	run := trainRun{trainFrms: p.Train.TotalFrames()}
	var start time.Time
	cfg := sp.hfConfig(&run, &start)
	host := readHostCPU()
	start = time.Now()
	res, err := sess.Run(cfg)
	run.wall = time.Since(start)
	run.steal = stealShare(host, readHostCPU())
	run.res = res
	return run, err
}

// minReps is the fewest repetitions (training runs, serve rounds) one
// measurement makes.
const minReps = 2

// moreReps reports whether another repetition fits the measured time: it
// is started only if, at the mean pace of the done ones, it would end
// within the measured time.
func moreReps(start time.Time, done int, seconds time.Duration) bool {
	el := time.Since(start)
	return el+el/time.Duration(done) <= seconds
}

// benchTrain measures a training workload with tracing off: repetitions on
// successive sub-seeds until the run's time is spent. The timing metrics
// are medians over the calm repetitions (see calm) of measured wall times;
// latency_p50_ms pools their iterations. heldout_loss is the median final
// held-out loss over every repetition.
func benchTrain(sp trainSpec, seed int64, seconds time.Duration, rep *report) {
	var runs []trainRun
	var finals, steals, reached []float64
	start := time.Now()
	for i := 0; i < minReps || moreReps(start, i, seconds); i++ {
		p, sess, setup, err := sp.setup(subSeed(seed, i))
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("setup sub-seed %d: %v", i, err)
			continue
		}
		run, err := sp.runUntraced(sess, p)
		if err != nil {
			rep.failed++
			rep.fail("run sub-seed %d: %v", i, err)
			continue
		}
		sp.checkRun(rep, p, run, fmt.Sprintf("sub-seed %d", i))
		ttt := math.Inf(1)
		if d, ok := run.timeToTarget(sp.target); ok {
			ttt = d.Seconds()
		} else {
			rep.failed++
			rep.note("sub-seed %d missed the held-out loss target %v (final %v)", i, sp.target, run.res.HF.FinalLoss)
		}
		runs = append(runs, run)
		reached = append(reached, ttt)
		finals = append(finals, run.res.HF.FinalLoss)
		steals = append(steals, run.steal)
		rep.note("sub-seed %d: setup %.4fs, run %.3fs at %.1f%% steal, target reached at %.3fs, %d CG iterations, held-out loss by iteration %.4f",
			i, setup.Seconds(), run.wall.Seconds(), 100*run.steal, ttt, run.res.HF.TotalCGIters, run.losses)
	}
	if len(runs) == 0 {
		return
	}
	setup, err := timeSetups(func(i int) (time.Duration, error) {
		_, _, d, err := sp.setup(subSeed(seed, i))
		return d, err
	})
	if err != nil {
		rep.fail("setup: %v", err)
		return
	}
	var walls, ttts, rates, iterMs []float64
	keep, n := calm(steals)
	for i, run := range runs {
		if !keep[i] {
			continue
		}
		walls = append(walls, run.wall.Seconds())
		ttts = append(ttts, reached[i])
		rates = append(rates, float64(run.trainFrms*len(run.losses))/run.wall.Seconds())
		for _, d := range run.iterDurations() {
			iterMs = append(iterMs, ms(d))
		}
	}
	rep.note("%d of %d repetitions count for timing (steal at most %.1f%%)", n, len(runs), 100*math.Max(median(steals), quietSteal))
	rep.set("setup_s", setup)
	rep.set("train_s", median(walls))
	rep.set("time_to_target_s", median(ttts))
	rep.set("heldout_loss", median(finals))
	rep.set("capacity_rps", median(rates))
	rep.set("latency_p50_ms", percentile(iterMs, 50))
}

// tracedRun is a distributed run in attach mode over timing transports.
type tracedRun struct {
	trainRun
	links     []*linkStats
	rankWall  []time.Duration
	gemmCalls int64
	gemmFlops map[blas.ShapeClass]int64
	mem       memDelta
}

// runTraced trains p once with every rank's transport wrapped in a timing
// decorator, GEMM counters on and the heap sampled. Spans: the Session.Run
// span, one span per rank under it, and each transport call under its rank.
func (sp trainSpec) runTraced(p core.Problem, rec *spanRecorder, runID string) (tracedRun, error) {
	fabric := mpi.NewInprocFabric(sp.ranks)
	defer fabric.Close()
	tr := tracedRun{trainRun: trainRun{trainFrms: p.Train.TotalFrames()},
		links: make([]*linkStats, sp.ranks), rankWall: make([]time.Duration, sp.ranks)}
	runSpan := rec.newID()
	rankSpans := make([]uint64, sp.ranks)
	sessions := make([]*core.Session, sp.ranks)
	comms := make([]*mpi.Comm, sp.ranks)
	for r := range comms {
		tr.links[r] = &linkStats{}
		rankSpans[r] = rec.newID()
		comms[r] = mpi.NewComm(&timedTransport{Transport: fabric.Transport(r), st: tr.links[r], rec: rec, run: runID, parent: rankSpans[r]})
		defer comms[r].Close()
		sess, err := core.NewSession(p, core.WithComm(comms[r]))
		if err != nil {
			return tr, err
		}
		sessions[r] = sess
	}

	reg := obs.NewRegistry()
	blas.EnableMetrics(reg)
	defer blas.DisableMetrics()
	probe := startMemProbe()
	var start time.Time
	cfg := sp.hfConfig(&tr.trainRun, &start)
	start = time.Now()
	errs := make(chan error, sp.ranks-1)
	rankEnd := make([]time.Time, sp.ranks)
	for r := 1; r < sp.ranks; r++ {
		go func(r int) {
			_, err := sessions[r].Run(cfg)
			rankEnd[r] = time.Now()
			errs <- err
		}(r)
	}
	res, err := sessions[0].Run(cfg)
	rankEnd[0] = time.Now()
	if err != nil {
		for _, c := range comms[1:] {
			c.Close() // unpark workers blocked on the failed master
		}
	}
	for r := 1; r < sp.ranks; r++ {
		if werr := <-errs; werr != nil && err == nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	end := time.Now()
	tr.mem = probe.stop()
	tr.wall = rankEnd[0].Sub(start)
	tr.res = res
	for r := range rankEnd {
		tr.rankWall[r] = rankEnd[r].Sub(start)
		rec.add(rankSpans[r], runSpan, runID, "core.rank", r, start, rankEnd[r])
	}
	rec.add(runSpan, 0, runID, "core.Session.Run", -1, start, end)
	tr.gemmCalls = reg.Counter("blas.gemm.calls").Value()
	tr.gemmFlops = map[blas.ShapeClass]int64{}
	for _, cl := range []blas.ShapeClass{blas.ShapeSmall, blas.ShapeSkinny, blas.ShapeLarge} {
		tr.gemmFlops[cl] = reg.Counter("blas.gemm.flops." + cl.String()).Value()
	}
	return tr, err
}

// serialPass optimizes p in one process through the timing Objective
// decorator: the nn cost per objective call and the optimizer's own time.
func (sp trainSpec) serialPass(p core.Problem, rec *spanRecorder, runID string) (*timedObjective, hf.Result, time.Duration, error) {
	obj, err := core.NewSerialObjective(p)
	if err != nil {
		return nil, hf.Result{}, 0, err
	}
	span := rec.newID()
	dec := decorate(obj, rec, runID, span)
	start := time.Now()
	res := hf.Optimize(dec.objective(), hf.Config{MaxIterations: sp.iters})
	end := time.Now()
	rec.add(span, 0, runID, "hf.Optimize", -1, start, end)
	return dec, res, end.Sub(start), nil
}

// traceTrain makes the traced measurement of a training workload:
// alternating untraced and traced runs of the first sub-seed until the
// run's time is spent, then a serial pass and direct kernel timings.
func traceTrain(sp trainSpec, seed int64, seconds time.Duration, rep *report, rec *spanRecorder) {
	s0 := subSeed(seed, 0)
	var p core.Problem
	var plainWalls, tracedWalls []float64
	var tr tracedRun
	start := time.Now()
	for i := 0; i < 1 || moreReps(start, i, seconds); i++ {
		var sess *core.Session
		var err error
		p, sess, _, err = sp.setup(s0)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("setup: %v", err)
			return
		}
		plain, err := sp.runUntraced(sess, p)
		if err != nil {
			rep.failed++
			rep.fail("untraced run: %v", err)
			return
		}
		plainWalls = append(plainWalls, plain.wall.Seconds())
		rep.attempted++
		tr, err = sp.runTraced(p, rec, fmt.Sprintf("traced-%d", i))
		if err != nil {
			rep.failed++
			rep.fail("traced run: %v", err)
			return
		}
		tracedWalls = append(tracedWalls, tr.wall.Seconds())
		sp.checkRun(rep, p, tr.trainRun, "traced run")
		if _, ok := tr.timeToTarget(sp.target); !ok {
			rep.failed++
		}
		if !equalLosses(plain.losses, tr.losses) {
			rep.fail("traced losses %v differ from untraced %v", tr.losses, plain.losses)
		}
	}
	nIter := float64(len(tr.losses))

	// blas
	rep.set("blas.gemm.calls", float64(tr.gemmCalls)/nIter)
	sizes := sp.sizes(p.Train.InputDim())
	shapes := classShapes(sizes, sp.batches, true)
	for cl, s := range shapes {
		rep.set("blas.gemm.gflop."+cl.String(), float64(tr.gemmFlops[cl])/1e9/nIter)
		rep.set("blas.gemm.gflops."+cl.String(), gemmGFLOPS(s))
	}
	rep.set("blas.gemm.gflops.peak", peakGFLOPS())

	// nn and hf, from the serial pass
	dec, serial, serialWall, err := sp.serialPass(p, rec, "serial")
	rep.attempted++
	if err != nil {
		rep.failed++
		rep.fail("serial pass: %v", err)
		return
	}
	for _, m := range []string{"gradient", "gn_product", "heldout_loss"} {
		c := dec.calls[m]
		if c == nil {
			continue
		}
		rep.set("nn."+m+".ms", ms(c.dur)/float64(c.calls))
		rep.set("nn."+m+".calls", float64(c.calls))
	}
	if c := dec.calls["gn_product"]; c != nil {
		rep.set("nn.gn_product.alloc_kb", float64(c.alloc)/1024/float64(c.calls))
	}
	setForwardInto(rep, p.Topo, s0)
	// One gradient under the sequence criterion on the same corpus keeps
	// the seq module measured whatever the workload's own criterion.
	sq := p
	sq.Criterion = core.Sequence
	if obj, err := core.NewSerialObjective(sq); err == nil {
		d := decorate(obj, rec, "seq-gradient", 0)
		d.Gradient()
		rep.set("nn.seq_gradient.ms", ms(d.calls["gradient"].dur))
	} else {
		rep.fail("sequence objective: %v", err)
	}
	rep.set("hf.self_ms", ms(serialWall-dec.total())/float64(len(serial.Iters)))
	backtracks, rejected := 0, 0
	for _, it := range tr.res.HF.Iters {
		backtracks += it.Backtracks
		if !it.Accepted {
			rejected++
		}
	}
	rep.set("hf.cg_iters", float64(tr.res.HF.TotalCGIters))
	rep.set("hf.backtracks", float64(backtracks))
	rep.set("hf.rejected_iters", float64(rejected))

	// core: compute versus waiting per rank
	var iterMs []float64
	for _, d := range tr.iterDurations() {
		iterMs = append(iterMs, ms(d))
	}
	rep.set("core.iter.ms.p50", percentile(iterMs, 50))
	rep.set("core.iter.ms.max", maxOf(iterMs))
	busy := func(r int) float64 {
		l := tr.links[r]
		return (tr.rankWall[r] - time.Duration(l.recvNs.Load()+l.sendNs.Load())).Seconds()
	}
	rep.set("core.master.busy_s", busy(0))
	rep.set("core.master.wait_s", time.Duration(tr.links[0].recvNs.Load()).Seconds())
	var wBusy, wIdle []float64
	for r := 1; r < sp.ranks; r++ {
		wBusy = append(wBusy, busy(r))
		wIdle = append(wIdle, time.Duration(tr.links[r].recvNs.Load()).Seconds())
	}
	rep.set("core.worker.busy_s.max", maxOf(wBusy))
	rep.set("core.worker.busy_s.min", minOf(wBusy))
	rep.set("core.worker.idle_s.mean", mean(wIdle))
	rep.set("core.worker.imbalance", ratio(maxOf(wBusy), mean(wBusy)))
	rep.set("core.speedup", ratio(serialWall.Seconds(), median(plainWalls)))
	rep.set("corpus.shard_imbalance", corpus.MeasureBalance(corpus.SortedGreedy{}.Partition(p.Train.Utts, sp.ranks-1)).Imbalance)

	// mpi: traffic per HF iteration over all ranks, and the master's profile
	var sends, bytes, sendNs int64
	for _, l := range tr.links {
		sends += l.sends.Load()
		bytes += l.sendBytes.Load()
		sendNs += l.sendNs.Load()
	}
	rep.set("mpi.msgs_per_iter", float64(sends)/nIter)
	rep.set("mpi.bytes_per_iter", float64(bytes)/nIter)
	rep.set("mpi.master.bytes_in_per_iter", float64(tr.links[0].recvBytes.Load())/nIter)
	rep.set("mpi.send_ms", ms(time.Duration(sendNs))/nIter)
	var coll, p2p time.Duration
	for _, st := range tr.res.MPIProfile {
		if st.Cat == mpi.CatCollective {
			coll += st.Stat.Time
		} else {
			p2p += st.Stat.Time
		}
	}
	rep.set("mpi.collective_ms", ms(coll)/nIter)
	rep.set("mpi.p2p_ms", ms(p2p)/nIter)

	// runtime, over the last traced run
	rep.set("runtime.alloc_mb_per_iter", float64(tr.mem.allocBytes)/1e6/nIter)
	rep.set("runtime.gc_count", float64(tr.mem.numGC))
	rep.set("runtime.gc_pause_ms", ms(tr.mem.pause))
	rep.set("runtime.heap_peak_mb", float64(tr.mem.heapPeak)/1e6)
	rep.set("trace.overhead_pct", (median(tracedWalls)/median(plainWalls)-1)*100)
}

// setForwardInto times the inference forward pass of a Glorot network of
// the given topology at batches of 1, 8 and 32 rows.
func setForwardInto(rep *report, topo nn.Topology, seed int64) {
	net := nn.New(topo)
	net.InitGlorot(rand.New(rand.NewSource(seed)))
	for _, b := range []int{1, 8, 32} {
		rep.set(fmt.Sprintf("nn.forward_into.us.b%d", b), forwardIntoMicros(net, b))
	}
}

// equalLosses reports whether two loss trajectories are bit-identical.
func equalLosses(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
