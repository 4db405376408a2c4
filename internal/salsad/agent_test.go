package salsad

import (
	"context"
	"testing"

	"salsa"
)

// TestAgentEpochWriterOnFirstIngest pushes from epoch-topology agents
// before and after their first item: an agent claims its writer (and the
// writer's private buffers) only when it ingests, and cuts before that
// ship nothing.
func TestAgentEpochWriterOnFirstIngest(t *testing.T) {
	specs := map[string]salsa.Spec{
		"cms": salsa.EpochShardedBy(testSpec(), 1),
		"cs":  salsa.EpochShardedBy(salsa.CountSketchOf(salsa.Options{Width: 1 << 8, Merge: salsa.MergeSum, Seed: 11}), 1),
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			agg, err := NewAggregator(AggregatorConfig{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			ag := newTestAgent(t, AgentConfig{ID: "edge", Spec: spec, Transport: &directTransport{agg: agg}})
			writers := func() int { return ag.Sketch().(interface{ Stats() salsa.EpochStats }).Stats().Writers }
			ctx := context.Background()
			if err := ag.PushOnce(ctx); err != nil { // nothing ingested yet
				t.Fatal(err)
			}
			if n := writers(); n != 0 {
				t.Fatalf("%d writers claimed before the first item", n)
			}
			if got := queryOne(t, agg, 5); got != 0 {
				t.Fatalf("count(5) before any ingest = %d", got)
			}
			for round := 0; round < 2; round++ {
				for i := 0; i < 10; i++ {
					ag.Ingest(5)
				}
				if err := ag.PushOnce(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if !ag.Synced() || writers() != 1 {
				t.Fatalf("agent synced %v with %d writers, want synced with 1", ag.Synced(), writers())
			}
			if got := queryOne(t, agg, 5); got != 20 {
				t.Fatalf("count(5) = %d, want 20", got)
			}
		})
	}
}
