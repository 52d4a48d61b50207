// Command perfbench is the repository's benchmark. It runs one named
// workload against the library's public functions, checks every output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	go run . -workload pagerank -seed 1 -seconds 18 -trace 0
//
// Workloads, metrics and the layer-to-metric mapping are documented in
// LAYERS.md next to this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Every workload runs on the same small cluster: the benchmark host has
// two CPUs.
const (
	executors = 2
	servers   = 2
	parts     = 8
)

// round is one set-up plus one job, measured from outside.
type round struct {
	setup time.Duration
	cpu   time.Duration // process CPU over the job
	// tput holds throughput samples in work units per second: one per
	// training job, one per sub-window of the serving workload.
	tput    []float64
	quality float64
	lookups []time.Duration
	// ops and failed count operations beyond the job itself (lookups,
	// pushes); the job is one more operation.
	ops, failed int64
	memPeak     uint64 // filled in by the runner
	// layers holds the per-layer values; spans the traced RPCs.
	layers map[string]float64
	spans  []Span
}

// errCheck marks a round whose outputs failed a correctness check, as
// opposed to an operation that failed.
var errCheck = errors.New("correctness check failed")

// probe is what the runner hands each round: whether to trace it, and
// the heap sampler it started with the round, which the round stops with
// jobDone once its job is over so that later reads are not counted.
type probe struct {
	traced bool
	heap   *heapSampler
	peak   uint64
	done   bool
}

func (p *probe) jobDone() {
	if !p.done {
		p.peak, p.done = p.heap.Stop(), true
	}
}

// workload generates its inputs from a seed once, then runs rounds.
type workload struct {
	name   string
	params map[string]any
	// prepare builds the inputs and returns the round function. Traced
	// rounds record spans and per-layer values; untraced rounds run the
	// program exactly as a user would.
	prepare func(seed int64) (func(*probe) (*round, error), error)
}

var workloads = map[string]workload{
	"pagerank":    pagerankWorkload,
	"line":        lineWorkload,
	"graphsage":   graphsageWorkload,
	"serve-mixed": serveWorkload,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pagerank, line, graphsage or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured time")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from traced rounds")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// provenance is printed before the result so every result carries the
// host and inputs it was measured with.
func provenance(w workload, seed int64, seconds time.Duration, trace bool) {
	p := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    seconds.Seconds(),
		"trace":      trace,
		"params":     w.params,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     gitCommit(),
		"executors":  executors,
		"servers":    servers,
		"partitions": parts,
	}
	b, _ := json.Marshal(map[string]any{"provenance": p})
	fmt.Println(string(b))
}

// run measures rounds until the time is up. A traced run alternates
// untraced and traced rounds so the tracing overhead is measured in the
// same process. Standard error shows, per round, the share of the host's
// CPU that other processes or the hypervisor took, so a disturbed run can
// be told from a slow program.
func run(w workload, seed int64, seconds time.Duration, trace bool) (*result, error) {
	provenance(w, seed, seconds, trace)
	roundFn, err := w.prepare(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", w.name, err)
	}
	base := settledHeap()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var plain, traced []*round
	start := time.Now()
	for i := 0; ; i++ {
		isTraced := trace && len(traced) < len(plain)
		runtime.GC()
		host0, hostOK := hostBusy()
		own0, t0 := cpuTime(), time.Now()
		p := &probe{traced: isTraced, heap: startHeapSampler()}
		r, err := roundFn(p)
		p.jobDone()
		foreign := math.NaN() // unknown without /proc/stat
		if host1, _ := hostBusy(); hostOK {
			foreign = float64(host1-host0-(cpuTime()-own0)) / float64(time.Duration(runtime.NumCPU())*time.Since(t0))
		}
		res.Attempted++
		if r != nil {
			res.Attempted += r.ops
			res.Failed += r.failed
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", w.name, i, err)
			res.Correct = false
			if !errors.Is(err, errCheck) {
				res.Failed++
			}
			if r == nil {
				break
			}
		}
		if p.peak > base {
			r.memPeak = p.peak - base
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d traced=%v setup %.3fs throughput %.0f quality %.4f foreign CPU %.3f\n",
			i, isTraced, r.setup.Seconds(), r.tput, r.quality, foreign)
		if isTraced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if time.Since(start) >= seconds && len(plain) >= 2 && (!trace || len(traced) >= 1) {
			break
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if !trace {
		endToEnd(res, plain)
		return res, nil
	}
	perLayer(res, plain, traced)
	if err := saveSpans(w.name, seed, traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
	}
	return res, nil
}

func collect(rs []*round, f func(*round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func throughput(rs []*round) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.tput...)
	}
	return median(xs)
}

// lookupMs returns the lookup latencies of rs in milliseconds.
func lookupMs(rs []*round) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, ms(r.lookups)...)
	}
	return out
}

// endToEnd reports the user-visible metrics as medians over rounds.
func endToEnd(res *result, rs []*round) {
	m := res.Metrics
	lookups := lookupMs(rs)
	m["setup_s"] = metric{median(collect(rs, func(r *round) float64 { return r.setup.Seconds() })), "s"}
	m["throughput"] = metric{throughput(rs), "items/s"}
	m["cpu_s"] = metric{median(collect(rs, func(r *round) float64 { return r.cpu.Seconds() })), "s"}
	m["mem_peak_mb"] = metric{median(collect(rs, func(r *round) float64 { return float64(r.memPeak) / 1e6 })), "MB"}
	m["quality"] = metric{median(collect(rs, func(r *round) float64 { return r.quality })), "ratio"}
	m["lookup_p50_ms"] = metric{quantile(lookups, 0.50), "ms"}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds; lookup p50 over %d lookups\n", len(rs), len(lookups))
}

// perLayer reports the per-layer metrics as means over the traced
// rounds, plus the tracing overhead against the untraced rounds.
func perLayer(res *result, plain, traced []*round) {
	sums := map[string]float64{}
	for _, r := range traced {
		for k, v := range r.layers {
			sums[k] += v
		}
	}
	n := float64(max(len(traced), 1)) // no traced round when the first job failed
	for _, k := range layerNames {
		res.Metrics[k.name] = metric{sums[k.name] / n, k.unit}
	}
	var over float64
	if t, u := throughput(traced), throughput(plain); t > 0 && u > 0 {
		over = 1 - t/u
	}
	res.Metrics["trace.overhead_frac"] = metric{over, "ratio"}
	// The lookup tail comes from the untraced rounds, like the end-to-end
	// metrics.
	lookups := lookupMs(plain)
	res.Metrics["lookup.p99_ms"] = metric{quantile(lookups, 0.99), "ms"}
	fmt.Fprintf(os.Stderr, "perfbench: lookup p99 over %d lookups\n", len(lookups))
}

// saveSpans writes the traced rounds' spans as JSON lines under
// .bench_build/spans in the working directory.
func saveSpans(name string, seed int64, rs []*round) error {
	var spans []Span
	for _, r := range rs {
		spans = append(spans, r.spans...)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)), spans)
}
