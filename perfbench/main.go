// Command perfbench is the repository benchmark. One invocation measures
// one workload for a fixed time and prints every metric with its unit; the
// last line of standard output is a JSON object with the fields correct,
// attempted, failed and metrics.
//
//	perfbench --workload train-ce --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it makes the traced run instead: the program's
// layers are timed from outside through decorators and registries, the
// per-layer metrics are reported, and the spans are written under --out.
// README.md lists the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Set-up is timed after the measured time in setupBlocks blocks of at
// least setupBlock and minSetups set-ups each.
const (
	setupBlocks = 5
	setupBlock  = 200 * time.Millisecond
	minSetups   = 3
)

// timeSetups repeats setup, which returns the time one set-up took, in
// setupBlocks blocks, and returns the median time over the set-ups of the
// calm blocks (see calm). Set-up allocates heavily, so on a 2-vCPU VM it
// slowed with host steal about as much as training did: serve set-up
// medians went from 9 ms at 1–5% steal to 13 ms at 8–16%.
func timeSetups(setup func(i int) (time.Duration, error)) (float64, error) {
	var blocks [][]float64
	var steals []float64
	i := 0
	for b := 0; b < setupBlocks; b++ {
		var ts []float64
		host := readHostCPU()
		begin := time.Now()
		for len(ts) < minSetups || time.Since(begin) < setupBlock {
			d, err := setup(i)
			if err != nil {
				return 0, err
			}
			ts = append(ts, d.Seconds())
			i++
		}
		blocks = append(blocks, ts)
		steals = append(steals, stealShare(host, readHostCPU()))
	}
	keep, _ := calm(steals)
	var ts []float64
	for b, k := range keep {
		if k {
			ts = append(ts, blocks[b]...)
		}
	}
	return median(ts), nil
}

// endToEnd and perLayer map every metric to its unit; BENCHMARK.json
// lists the same names. Every workload reports every metric. A per-layer
// metric of a layer the workload bypasses reads 0.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"train_s":          "s",
	"time_to_target_s": "s",
	"heldout_loss":     "nats",
	"capacity_rps":     "1/s",
	"latency_p50_ms":   "ms",
}

var perLayer = map[string]string{
	"blas.gemm.calls":              "count",
	"blas.gemm.gflop.large":        "GFLOP",
	"blas.gemm.gflop.skinny":       "GFLOP",
	"blas.gemm.gflop.small":        "GFLOP",
	"blas.gemm.gflops.large":       "GFLOP/s",
	"blas.gemm.gflops.skinny":      "GFLOP/s",
	"blas.gemm.gflops.small":       "GFLOP/s",
	"blas.gemm.gflops.peak":        "GFLOP/s",
	"nn.gradient.ms":               "ms",
	"nn.gradient.calls":            "count",
	"nn.gn_product.ms":             "ms",
	"nn.gn_product.calls":          "count",
	"nn.gn_product.alloc_kb":       "KiB",
	"nn.heldout_loss.ms":           "ms",
	"nn.heldout_loss.calls":        "count",
	"nn.seq_gradient.ms":           "ms",
	"nn.forward_into.us.b1":        "us",
	"nn.forward_into.us.b8":        "us",
	"nn.forward_into.us.b32":       "us",
	"hf.cg_iters":                  "count",
	"hf.backtracks":                "count",
	"hf.rejected_iters":            "count",
	"hf.self_ms":                   "ms",
	"core.iter.ms.p50":             "ms",
	"core.iter.ms.max":             "ms",
	"core.master.busy_s":           "s",
	"core.master.wait_s":           "s",
	"core.worker.busy_s.max":       "s",
	"core.worker.busy_s.min":       "s",
	"core.worker.idle_s.mean":      "s",
	"core.worker.imbalance":        "ratio",
	"core.speedup":                 "ratio",
	"corpus.shard_imbalance":       "ratio",
	"mpi.msgs_per_iter":            "count",
	"mpi.bytes_per_iter":           "B",
	"mpi.master.bytes_in_per_iter": "B",
	"mpi.send_ms":                  "ms",
	"mpi.collective_ms":            "ms",
	"mpi.p2p_ms":                   "ms",
	"serve.batches":                "count",
	"serve.batch_rows.mean":        "rows",
	"serve.flush_full_ratio":       "ratio",
	"serve.shed":                   "count",
	"serve.queue_depth.max":        "count",
	"serve.gen_late_ms.p50":        "ms",
	"serve.gen_late_ms.max":        "ms",
	"serve.latency_p99_ms":         "ms",
	"runtime.alloc_mb_per_iter":    "MB",
	"runtime.gc_count":             "count",
	"runtime.gc_pause_ms":          "ms",
	"runtime.heap_peak_mb":         "MB",
	"trace.overhead_pct":           "%",
}

// workloads are the ones BENCHMARK.json lists.
var workloads = []string{"train-ce", "serve"}

// report collects one run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string
}

func newReport() *report { return &report{correct: true, metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// note records a line for the human-readable output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run's outputs as wrong.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.note("CHECK FAILED: "+format, args...)
}

// metricJSON is one entry of the result's metrics object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish selects the metrics of the run's kind and checks that each was
// measured: an end-to-end metric must be a finite non-zero number, a
// per-layer metric a finite one (0 for a layer the workload bypasses).
func (r *report) finish(table map[string]string, traced bool) result {
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for name, unit := range table {
		v, ok := r.metrics[name]
		switch {
		case !ok && traced:
			v = 0
		case !ok:
			r.fail("metric %s was not measured", name)
			continue
		case math.IsInf(v, 1):
			// A latency percentile of failed requests; JSON has no
			// infinity, so report the largest finite value.
			v = math.MaxFloat64
		case math.IsNaN(v) || math.IsInf(v, -1) || (!traced && v == 0):
			r.fail("metric %s = %v", name, v)
			continue
		}
		out.Metrics[name] = metricJSON{Value: v, Unit: unit}
	}
	out.Correct = r.correct
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	return out
}

// stamp identifies the build and host a result came from.
type stamp struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	commit := fs.String("commit", "unknown", "source revision to stamp on the result")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory the traced run's spans are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, isTrain := trainSpecs[*workload]
	if !isTrain && *workload != "serve" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}

	st := stamp{Commit: *commit, CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace}
	stampLine, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stampLine)

	rep := newReport()
	host0 := readHostCPU()
	dur := time.Duration(*seconds) * time.Second
	var rec *spanRecorder
	if *trace == 1 {
		rec = newSpanRecorder()
	}
	switch {
	case isTrain && *trace == 0:
		benchTrain(trainSpecs[*workload], *seed, dur, rep)
	case isTrain:
		traceTrain(trainSpecs[*workload], *seed, dur, rep, rec)
	case *trace == 0:
		benchServe(*seed, dur, rep)
	default:
		traceServe(*seed, dur, rep, rec)
	}
	rep.note("host CPU steal during the run: %.1f%%", 100*stealShare(host0, readHostCPU()))
	if rec != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := rec.writeJSONL(path); err != nil {
			rep.note("spans not written: %v", err)
		} else {
			rep.note("%d spans written to %s", rec.len(), path)
		}
	}

	table := endToEnd
	if *trace == 1 {
		table = perLayer
	}
	res := rep.finish(table, *trace == 1)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
