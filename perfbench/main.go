// Command perfbench is the repository's end-to-end and per-layer
// benchmark: an in-process loopback cluster of salsad agents, an
// optional durable relay and a root, on real net/http over 127.0.0.1,
// driven by one seeded, single-goroutine, closed load loop.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics. A traced run measures the same seed
// twice, untraced and then traced, and reports the per-layer metrics
// from the traced pass's spans, each span's self time, and the tracing
// overhead (traced minus untraced) of every end-to-end metric; the spans
// themselves are written as JSON lines under --spans.
//
// run.sh builds and runs it from a checkout; BENCHMARK.json names its
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of stdout.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	workdir := fs.String("workdir", ".bench_build/work", "directory for the nodes' data dirs")
	spans := fs.String("spans", ".bench_build/spans", "directory traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0 or 1\n", names())
		return 2
	}
	// One P: the load loop is a single closed-loop goroutine, so this keeps
	// every handoff between it and the server goroutines on one thread.
	// With two, a wake-up across virtual CPUs now and then stalls a call
	// for milliseconds, and on millisecond calls those stalls decide the
	// p90 (3 ms pushes of 128 plain-cms agents: push_p90 spread 0.43 of
	// its median over ten seeds with two Ps, 0.06 with one, on a shared
	// 2-vCPU x86-64 VM).
	runtime.GOMAXPROCS(1)
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, spans: *spans, sizes: fullSizes, log: stderr}
	res, err := benchmark(context.Background(), w, &o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func lookup(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// benchmark generates the inputs and runs the untraced pass and, for a
// traced run, the traced pass after it.
func benchmark(ctx context.Context, w *workload, o *options) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	o.stop = time.Now().Add(budget)
	in := generate(o)
	plain, err := measure(ctx, w, o, in, nil)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   plain.badChecks == 0 && plain.checked > 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   map[string]value{},
	}
	e2e := plain.endToEnd()
	if !o.trace {
		return res, report(res, endToEnd, e2e)
	}

	tr := newTracer()
	traced, err := measure(ctx, w, o, in, tr)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && traced.badChecks == 0 && traced.checked > 0
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	spans := tr.finish()
	path, err := writeSpans(o.spans, fmt.Sprintf("%s-seed%d.jsonl", w.Name, o.seed), spans)
	if err != nil {
		return nil, err
	}
	dur, self := medians(spans)
	logSpans(o.log, path, len(spans), dur, self)

	layer := traced.layerValues()
	layer["salsa.ingest_ns_per_item"] = dur[spanIngest] * 1e6 / float64(w.Frame)
	for _, m := range spanMetrics {
		src := dur
		if m.self {
			src = self
		}
		if v, ok := src[m.span]; ok {
			layer[m.name] = v
		}
	}
	te2e := traced.endToEnd()
	for _, m := range endToEnd {
		layer[overheadPrefix+m.name] = te2e[m.name] - e2e[m.name]
	}
	return res, report(res, perLayer(), layer)
}

// report copies the catalogue's metrics into the result; a catalogue
// metric the pass did not measure is an error, not a silent zero.
func report(res *result, catalogue []metric, values map[string]float64) error {
	for _, m := range catalogue {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	return nil
}

// logSpans prints the per-span medians on stderr.
func logSpans(w io.Writer, path string, n int, dur, self map[string]float64) {
	fmt.Fprintf(w, "perfbench: %d spans written to %s\n", n, path)
	var names []string
	for name := range dur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "perfbench:   %-32s median %9.3f ms  self %9.3f ms\n", name, dur[name], self[name])
	}
}
