package main

import (
	"sort"
	"testing"

	"psgraph/internal/core"
	"psgraph/internal/dataflow"
	"psgraph/internal/gen"
)

// TestTracerSelfCheck runs small traced PageRank and LINE jobs through
// the benchmark's own job probe and checks the tracer against the
// program: the bytes it counted on the agent's calls equal the agent's
// Comm deltas (job.layers fails otherwise), per-family call counts sum to
// the total, and every call contains its handler, which took no longer.
func TestTracerSelfCheck(t *testing.T) {
	ctx, tr, err := newContext(true)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	raw := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2000, Seed: 7})
	edges := make([]core.Edge, len(raw))
	for i, e := range raw {
		edges[i] = core.Edge{Src: e.Src, Dst: e.Dst, W: 1}
	}
	rdd := dataflow.Parallelize(ctx.Spark, edges, parts)

	j, err := startJob(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PageRank(ctx, rdd, core.PageRankConfig{MaxIterations: 4, Tolerance: -1, CheckpointEvery: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Line(ctx, rdd, core.LineConfig{Dim: 8, Epochs: 1, Sync: "bsp"}); err != nil {
		t.Fatal(err)
	}
	j.end("selfcheck")
	layers, spans, err := j.layers()
	if err != nil {
		t.Fatal(err)
	}

	var calls, handlers []Span
	for _, s := range spans {
		switch s.Kind {
		case kindCall:
			calls = append(calls, s)
		case kindHandler:
			handlers = append(handlers, s)
		}
	}
	var famCalls float64
	for _, f := range families {
		famCalls += layers["rpc."+f+".calls"]
		if f != "serve" && layers["rpc."+f+".calls"] == 0 {
			t.Errorf("no %s calls traced", f)
		}
	}
	if famCalls != float64(len(calls)) {
		t.Errorf("per-family calls sum to %v, %d calls traced", famCalls, len(calls))
	}
	if len(handlers) != len(calls) {
		t.Fatalf("%d handler spans for %d calls", len(handlers), len(calls))
	}

	// In-process handlers run inside the call that invoked them, so every
	// call contains exactly one handler span for the same address and
	// method. Match greedily in start order.
	sort.Slice(calls, func(a, b int) bool { return calls[a].Start < calls[b].Start })
	sort.Slice(handlers, func(a, b int) bool { return handlers[a].Start < handlers[b].Start })
	used := make([]bool, len(handlers))
	for _, c := range calls {
		found := false
		for i, h := range handlers {
			if used[i] || h.Addr != c.Addr || h.Method != c.Method || h.Start < c.Start || h.End > c.End {
				continue
			}
			if h.dur() > c.dur() {
				t.Errorf("%s %s: handler %v longer than call %v", c.Addr, c.Method, h.dur(), c.dur())
			}
			used[i], found = true, true
			break
		}
		if !found {
			t.Errorf("call %s %s at %d has no handler inside it", c.Addr, c.Method, c.Start)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}
