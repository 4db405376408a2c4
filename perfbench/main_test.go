package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tiny shrinks a workload to a smoke-test size: few agents, narrow
// sketches, small frames, a handful of steps.
func tiny(w workload) workload {
	w.Agents = min(w.Agents, 3)
	w.Width = 1 << 10
	w.Frame = 256
	w.Fill = 1024
	w.Rate = 12
	return w
}

var tinySizes = sizes{Pool: 1 << 13, Queries: 32, Setups: 2, Restarts: 2}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run passes its correctness check with no failed
// operation and reports exactly the metrics BENCHMARK.json names, with
// their units; end-to-end metrics must not be zero.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench runs %d", len(file.Workloads), len(workloads))
	}
	e2eUnits, layerUnits := map[string]string{}, map[string]string{}
	for _, m := range file.EndToEnd {
		e2eUnits[m.Name] = m.Unit
	}
	for _, m := range file.PerLayer {
		layerUnits[m.Name] = m.Unit
	}

	for _, fw := range file.Workloads {
		w, ok := lookup(fw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not defined", fw.Name)
		}
		small := tiny(*w)
		for _, trace := range []bool{false, true} {
			o := options{seed: 7, seconds: 1, trace: trace, workdir: t.TempDir(), spans: t.TempDir(), sizes: tinySizes, log: io.Discard}
			res, err := benchmark(context.Background(), &small, &o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2eUnits
			if trace {
				want = layerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, name)
				}
			}
		}
	}
}

// TestCheckCatchesWrongEstimates pins the correctness check itself: a
// root estimate that differs from the reference, or that falls below the
// exact count, is a failed check.
func TestCheckCatchesWrongEstimates(t *testing.T) {
	p := &pass{o: &options{}}
	p.verify("query", 1, 10, 10, 7)
	if p.badChecks != 0 {
		t.Fatalf("a matching estimate failed the check")
	}
	p.verify("query", 2, 11, 10, 7)
	p.verify("top", 3, 6, 6, 7)
	if p.badChecks != 2 || p.checked != 3 {
		t.Fatalf("checked %d, failed %d; want 3 checked, 2 failed", p.checked, p.badChecks)
	}
}

func TestExactCounts(t *testing.T) {
	pool := []uint64{1, 2, 1, 3, 1, 2}
	want := map[uint64]bool{1: true, 2: true, 9: true}
	got := exactCounts(pool, want, 2, 3) // the pool twice, then 1, 2, 1
	for item, n := range map[uint64]int64{1: 8, 2: 5, 9: 0} {
		if got[item] != n {
			t.Errorf("item %d: %d, want %d", item, got[item], n)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile([]float64{1, 2}, 0.9); q != 1.9 {
		t.Errorf("p90 %v, want 1.9", q)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
	}
	spans := tr.finish()
	for i, want := range []int64{50, 30, 20, 10} {
		if spans[i].Self != want {
			t.Errorf("%s self %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
}
