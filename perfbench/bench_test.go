package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/nn"
)

// The timing Transport must deliver every message unchanged, and its
// counts must agree with the communicator's own mpi.Profiler.
func TestTimedTransportPassThrough(t *testing.T) {
	for _, fabric := range []string{"inproc", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			var ts []mpi.Transport
			if fabric == "tcp" {
				var err error
				if ts, err = mpi.ConnectTCPLocal(2); err != nil {
					t.Fatal(err)
				}
			} else {
				f := mpi.NewInprocFabric(2)
				defer f.Close()
				ts = []mpi.Transport{f.Transport(0), f.Transport(1)}
			}
			stats := []*linkStats{{}, {}}
			rec := newSpanRecorder()
			a := mpi.NewComm(&timedTransport{Transport: ts[0], st: stats[0], rec: rec, run: "t"})
			b := mpi.NewComm(&timedTransport{Transport: ts[1], st: stats[1], rec: rec, run: "t"})
			defer a.Close()
			defer b.Close()

			rng := rand.New(rand.NewSource(3))
			var sent [][]byte
			for i := 0; i < 20; i++ {
				msg := make([]byte, rng.Intn(5000))
				rng.Read(msg)
				sent = append(sent, msg)
			}
			done := make(chan error, 1)
			go func() {
				for i, msg := range sent {
					if err := a.SendBytes(1, 100+i, msg); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for i, want := range sent {
				got, err := b.RecvBytes(0, 100+i)
				if err != nil {
					t.Fatal(err)
				}
				if got.Src != 0 || got.Tag != 100+i || !bytes.Equal(got.Data, want) {
					t.Fatalf("message %d: got src %d tag %d, %d bytes; want src 0 tag %d, %d bytes",
						i, got.Src, got.Tag, len(got.Data), 100+i, len(want))
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			p2p := func(c *mpi.Comm) (calls, bytes int64) {
				for _, ps := range c.Profiler().Snapshot() {
					if ps.Cat == mpi.CatP2P {
						calls += ps.Stat.Calls
						bytes += ps.Stat.Bytes
					}
				}
				return calls, bytes
			}
			if calls, n := p2p(a); stats[0].sends.Load() != calls || stats[0].sendBytes.Load() != n {
				t.Errorf("sender: wrapper %d sends / %d bytes, profiler %d / %d",
					stats[0].sends.Load(), stats[0].sendBytes.Load(), calls, n)
			}
			if calls, n := p2p(b); stats[1].recvs.Load() != calls || stats[1].recvBytes.Load() != n {
				t.Errorf("receiver: wrapper %d recvs / %d bytes, profiler %d / %d",
					stats[1].recvs.Load(), stats[1].recvBytes.Load(), calls, n)
			}
			if got := rec.len(); got != 2*len(sent) {
				t.Errorf("%d spans, want one per call (%d)", got, 2*len(sent))
			}
		})
	}
}

// smallProblem is a cross-entropy problem that optimizes in well under a
// second.
func smallProblem(seed int64) core.Problem {
	c := corpus.Generate(corpusConfig(seed, 20))
	train, held := c.Split(5)
	return core.Problem{Topo: nn.NewTopology(c.InputDim(), 16, numStates), Train: train, Heldout: held,
		Criterion: core.CrossEntropy, SampleFraction: 0.2, Seed: seed}
}

// The Objective decorator must not change the optimizer's arithmetic: the
// hf.Result and the final parameters are bit-identical with and without it.
func TestDecoratorKeepsResultBitIdentical(t *testing.T) {
	for _, precond := range []bool{false, true} {
		cfg := hf.Config{MaxIterations: 3, UsePreconditioner: precond}
		plainObj, err := core.NewSerialObjective(smallProblem(5))
		if err != nil {
			t.Fatal(err)
		}
		plain := hf.Optimize(plainObj, cfg)

		obj, err := core.NewSerialObjective(smallProblem(5))
		if err != nil {
			t.Fatal(err)
		}
		dec := decorate(obj, newSpanRecorder(), "t", 0)
		decorated := hf.Optimize(dec.objective(), cfg)

		if a, b := exact(t, plain), exact(t, decorated); a != b {
			t.Errorf("precond=%v: decorated result differs:\n%s\n%s", precond, a, b)
		}
		if a, b := exact(t, plainObj.Params()), exact(t, obj.Params()); a != b {
			t.Errorf("precond=%v: decorated run ends at different parameters", precond)
		}
		if dec.calls["gradient"] == nil || dec.calls["gradient"].calls != len(decorated.Iters) {
			t.Errorf("precond=%v: gradient calls not counted once per iteration: %+v", precond, dec.calls["gradient"])
		}
		if _, ok := dec.objective().(hf.Preconditioned); !ok {
			t.Error("decorated serial objective lost hf.Preconditioned")
		}
	}
}

// exact renders v as JSON, which writes every float in the shortest form
// that parses back to the same bits, so equal strings mean equal values.
func exact(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	inf := math.Inf(1)
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 10, 1},
		{ten, 0.1, 1},
		{[]float64{7}, 99, 7},
		{append(append([]float64(nil), ten...), inf), 99, inf},
		{append(append([]float64(nil), ten...), inf), 50, 6},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if ten[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, serveRate, 20000)
	b := poissonSchedule(7, serveRate, 20000)
	c := poissonSchedule(8, serveRate, 20000)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	if !same {
		t.Error("the same seed gave two different schedules")
	}
	if !differ {
		t.Error("different seeds gave the same schedule")
	}
	rate := float64(len(a)) / a[len(a)-1].Seconds()
	if math.Abs(rate/serveRate-1) > 0.03 {
		t.Errorf("schedule rate %.0f/s, want about %d/s", rate, serveRate)
	}
}

// calm keeps the units at most at the median steal share, and every unit
// of a quiet host.
func TestCalm(t *testing.T) {
	for _, c := range []struct {
		shares []float64
		want   string
	}{
		{[]float64{0.001, 0.3, 0.005, 0.2, 0.01}, "[true false true false true]"},
		{[]float64{0.05, 0.10, 0.08, 0.20}, "[true false true false]"},
		{[]float64{0.019, 0.001, 0.02}, "[true true true]"},
	} {
		keep, n := calm(c.shares)
		kept := 0
		for _, k := range keep {
			if k {
				kept++
			}
		}
		if fmt.Sprint(keep) != c.want || n != kept {
			t.Errorf("calm(%v) = %v, %d; want %s", c.shares, keep, n, c.want)
		}
	}
}

// Every shape the benchmark times for a class belongs to that class.
func TestClassShapes(t *testing.T) {
	for name, sp := range trainSpecs {
		sizes := sp.sizes(featDim * (2*context + 1))
		for cl, s := range classShapes(sizes, sp.batches, true) {
			if got := blas.ClassifyShape(s.m, s.n, s.k); got != cl {
				t.Errorf("%s: %v shape %+v classifies as %v", name, cl, s, got)
			}
		}
	}
	if s := classShapes(serveSizes, []int{24, 1}, false)[blas.ShapeLarge]; s.m != 24 {
		t.Errorf("serve large shape %+v, want the 24-row forward", s)
	}
}

// BENCHMARK.json, the metric tables and README.md name the same workloads
// and metrics, and BENCHMARK.json states each training workload's target.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if sp, ok := trainSpecs[w.Name]; ok && !strings.Contains(w.Why, fmt.Sprintf("held-out loss %v", sp.target)) {
			t.Errorf("BENCHMARK.json: %s does not state its target, held-out loss %v", w.Name, sp.target)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, table map[string]string) {
		if len(listed) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(table))
		}
		for _, m := range listed {
			if unit, ok := table[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s): benchmark reports unit %q", kind, m.Name, m.Unit, unit)
			}
			if !strings.Contains(string(readme), "`"+m.Name+"`") {
				t.Errorf("README.md does not describe %s", m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// A bad invocation exits non-zero and prints no result line.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "serve", "--seed", "1", "--seconds", "0", "--trace", "0"},
		{"--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// A short serve run passes its own checks and reports every end-to-end
// metric as a finite non-zero number.
func TestServeRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve workload")
	}
	rep := newReport()
	benchServe(3, 2*time.Second, rep)
	res := rep.finish(endToEnd, false)
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("serve run: %+v; notes %v", res, rep.notes)
	}
}
