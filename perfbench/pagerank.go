package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"psgraph/internal/core"
	"psgraph/internal/gen"
)

// Δ-PageRank on a DS2′-shaped R-MAT graph loaded from DFS text: the
// dataflow-dominated workload (text load, the groupBy shuffle and
// per-partition compute), with the checkpoint path on.
const (
	prScale       = 15
	prEdges       = 3_200_000
	prIters       = 40
	prCkptEvery   = 10
	prDamping     = 0.85
	prThreshold   = 1e-9 // core.PageRankConfig's default DeltaThreshold
	prTopK        = 10
	prL1Tolerance = 1e-9 // relative L1 distance allowed from the oracle
)

var pagerankWorkload = workload{
	name: "pagerank",
	params: map[string]any{"rmat_scale": prScale, "edges": prEdges, "iterations": prIters,
		"checkpoint_every": prCkptEvery, "tolerance": "off"},
	prepare: preparePageRank,
}

func preparePageRank(seed int64) (func(*probe) (*round, error), error) {
	edges := gen.RMAT(gen.RMATConfig{Scale: prScale, Edges: prEdges, Seed: seed})
	text, err := edgesText(edges)
	if err != nil {
		return nil, err
	}
	want, n := pagerankOracle(edges)
	wantTop := topK(want, prTopK)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return func(p *probe) (*round, error) {
		r := &round{}
		t0 := time.Now()
		ctx, tr, err := newContext(p.traced)
		if err != nil {
			return nil, err
		}
		defer ctx.Close()
		r.setup = time.Since(t0)
		// Staging the input file is input generation, not set-up.
		if err := ctx.FS.WriteFile("/in/edges.txt", text); err != nil {
			return nil, err
		}
		t1 := time.Now()
		loaded := core.LoadEdges(ctx, "/in/edges.txt", parts).Cache()
		count, err := loaded.Count()
		if err != nil {
			return nil, err
		}
		load := time.Since(t1)
		r.setup += load

		j, err := startJob(ctx, tr)
		if err != nil {
			return nil, err
		}
		res, err := core.PageRank(ctx, loaded, core.PageRankConfig{
			MaxIterations: prIters, Tolerance: -1, CheckpointEvery: prCkptEvery,
		})
		j.end("pagerank")
		p.jobDone()
		if err != nil {
			return nil, err
		}
		r.cpu = j.cpu
		r.tput = []float64{float64(count) * float64(res.Iterations) / j.wall.Seconds()}
		var checkErr error
		if p.traced {
			if r.layers, r.spans, err = j.layers(); err != nil {
				checkErr = err
			}
			r.layers["core.iterations"] = float64(res.Iterations)
			r.layers["core.epoch_p50_s"] = j.wall.Seconds() / float64(res.Iterations)
			r.layers["core.preprocess_s"] = load.Seconds()
		}

		// The ranks are read back in lookups of lookupBatch ids.
		got := make([]float64, n)
		r.lookups, err = readBatches(ids, res.Ranks.Pull, func(b []int64, vals []float64) error {
			if len(vals) != len(b) {
				return fmt.Errorf("%w: %d ranks for %d ids", errCheck, len(vals), len(b))
			}
			copy(got[b[0]:], vals)
			return nil
		})
		r.ops = int64(len(r.lookups))
		if err != nil {
			return r, err
		}
		if res.Iterations != prIters || count != prEdges {
			return r, fmt.Errorf("%w: %d iterations over %d edges, want %d over %d",
				errCheck, res.Iterations, count, prIters, prEdges)
		}
		// The gate below holds the distance under 1e-9, so on a passing
		// round quality is 1 to nine digits: it records the distance, it
		// cannot move.
		dist := l1(got, want) / l1(want, nil)
		r.quality = 1 - dist
		if dist > prL1Tolerance {
			return r, fmt.Errorf("%w: ranks are %.3g (relative L1) from the oracle", errCheck, dist)
		}
		if top := topK(got, prTopK); !slices.Equal(top, wantTop) {
			return r, fmt.Errorf("%w: top-%d ids %v, oracle %v", errCheck, prTopK, top, wantTop)
		}
		return r, checkErr
	}, nil
}

// pagerankOracle runs the same Δ-PageRank sequentially: Δ⁰ = 1-d, each
// iteration spreads d·Δ(src)/outdeg over a source's distinct
// destinations unless |Δ(src)| is below the sparsity threshold, then
// ranks += Δ and Δ ← Δnext.
func pagerankOracle(edges []gen.Edge) ([]float64, int64) {
	n := gen.MaxVertexID(edges) + 1
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = uint64(e.Src)<<32 | uint64(e.Dst)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	start := make([]int, n+1) // CSR offsets of each source's distinct destinations
	for _, k := range keys {
		start[k>>32+1]++
	}
	for i := int64(0); i < n; i++ {
		start[i+1] += start[i]
	}
	ranks := make([]float64, n)
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 - prDamping
	}
	for it := 0; it < prIters; it++ {
		for src := int64(0); src < n; src++ {
			deg := start[src+1] - start[src]
			d := cur[src]
			if deg == 0 || (d <= prThreshold && d >= -prThreshold) {
				continue
			}
			share := prDamping * d / float64(deg)
			for _, k := range keys[start[src]:start[src+1]] {
				next[uint32(k)] += share
			}
		}
		for i := range ranks {
			ranks[i] += cur[i]
			cur[i], next[i] = next[i], 0
		}
	}
	return ranks, n
}

// l1 returns Σ|a-b| (b may be nil for Σ|a|).
func l1(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		if b != nil {
			x -= b[i]
		}
		s += math.Abs(x)
	}
	return s
}

// topK returns the ids of the k highest ranks, ties broken by id.
func topK(ranks []float64, k int) []int64 {
	ids := make([]int64, len(ranks))
	for i := range ids {
		ids[i] = int64(i)
	}
	sort.SliceStable(ids, func(a, b int) bool { return ranks[ids[a]] > ranks[ids[b]] })
	return ids[:k]
}
