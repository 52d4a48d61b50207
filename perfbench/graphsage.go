package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"psgraph/internal/core"
	"psgraph/internal/dfs"
	"psgraph/internal/gen"
)

// Two-layer mean GraphSage (BSP) on a DS3′-shaped SBM graph, preprocessed
// from DFS text: the only workload where internal/tensor and internal/gnn
// compute runs. Preprocessing is set-up (Table I, column 1).
const (
	gsVertices = 16_000
	gsClasses  = 3
	gsFeatDim  = 16
	gsIntra    = 6
	gsInter    = 2.5
	gsNoise    = 1.35
	gsEpochs   = 6
	gsBatch    = 128
	gsHidden   = 16
	gsLR       = 0.02
	gsTrain    = 0.7 // core.GraphSageConfig's default TrainFrac
	gsAccLo    = 0.70
	gsAccHi    = 0.99
	// gsFeatTolerance is the rounding of the features' %.5f text format.
	gsFeatTolerance = 5.1e-6
)

var graphsageWorkload = workload{
	name: "graphsage",
	params: map[string]any{"vertices": gsVertices, "classes": gsClasses, "feature_dim": gsFeatDim,
		"epochs": gsEpochs, "batch": gsBatch, "hidden": gsHidden, "sync": "bsp",
		"accuracy_band": []float64{gsAccLo, gsAccHi}},
	prepare: prepareGraphSage,
}

func prepareGraphSage(seed int64) (func(*probe) (*round, error), error) {
	edges, labels := gen.SBM(gen.SBMConfig{Vertices: gsVertices, Classes: gsClasses,
		IntraDeg: gsIntra, InterDeg: gsInter, Seed: seed})
	feats := gen.Features(labels, gsClasses, gsFeatDim, gsNoise, seed+1)
	edgeText, err := edgesText(edges)
	if err != nil {
		return nil, err
	}
	scratch := dfs.NewDefault()
	if err := gen.WriteFeaturesText(scratch, "/f", labels, feats); err != nil {
		return nil, err
	}
	featText, err := scratch.ReadFile("/f")
	if err != nil {
		return nil, err
	}
	adj := make([][]int64, gsVertices)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	for v, ns := range adj {
		slices.Sort(ns)
		adj[v] = slices.Compact(ns)
	}
	ids := make([]int64, gsVertices)
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
		if err := ctx.FS.WriteFile("/in/edges.txt", edgeText); err != nil {
			return nil, err
		}
		if err := ctx.FS.WriteFile("/in/feats.txt", featText); err != nil {
			return nil, err
		}
		data, err := core.GraphSagePreprocess(ctx, "/in/edges.txt", "/in/feats.txt", parts)
		if err != nil {
			return nil, err
		}
		r.setup += data.PreprocessTime

		j, err := startJob(ctx, tr)
		if err != nil {
			return nil, err
		}
		res, err := core.GraphSage(ctx, data, core.GraphSageConfig{
			Classes: gsClasses, Epochs: gsEpochs, BatchSize: gsBatch, HiddenDim: gsHidden,
			LR: gsLR, TrainFrac: gsTrain, Seed: seed, Sync: "bsp",
		})
		j.end("graphsage")
		p.jobDone()
		if err != nil {
			return nil, err
		}
		r.cpu = j.cpu
		r.tput = []float64{gsTrain * float64(len(data.Vertices)) * float64(len(res.EpochTimes)) / j.wall.Seconds()}
		var checkErr error
		if p.traced {
			if r.layers, r.spans, err = j.layers(); err != nil {
				checkErr = err
			}
			epochs := make([]float64, len(res.EpochTimes))
			for i, d := range res.EpochTimes {
				epochs[i] = d.Seconds()
			}
			r.layers["core.iterations"] = float64(len(res.EpochTimes))
			r.layers["core.epoch_p50_s"] = median(epochs)
			r.layers["core.preprocess_s"] = data.PreprocessTime.Seconds()
		}

		r.quality = res.TestAccuracy
		if len(data.Vertices) != gsVertices || len(res.EpochTimes) != gsEpochs {
			return r, fmt.Errorf("%w: %d vertices preprocessed, %d epochs run; want %d, %d",
				errCheck, len(data.Vertices), len(res.EpochTimes), gsVertices, gsEpochs)
		}
		if acc := res.TestAccuracy; acc < gsAccLo || acc > gsAccHi {
			return r, fmt.Errorf("%w: test accuracy %.4f outside [%.2f, %.2f]", errCheck, acc, gsAccLo, gsAccHi)
		}
		// The features the job trained on are read back in lookups of
		// lookupBatch ids and must equal the generated ones, up to the
		// text format's five decimals.
		r.lookups, err = readBatches(ids, data.Feats.Pull, func(b []int64, got map[int64][]float64) error {
			for _, id := range b {
				row := got[id]
				if len(row) != gsFeatDim {
					return fmt.Errorf("%w: lookup returned %d values for row %d", errCheck, len(row), id)
				}
				for k, x := range row {
					if math.Abs(x-feats[id][k]) > gsFeatTolerance {
						return fmt.Errorf("%w: feature %d of vertex %d is %g, input has %g", errCheck, k, id, x, feats[id][k])
					}
				}
			}
			return nil
		})
		if err == nil {
			// So is the adjacency, which must equal the input graph's,
			// undirected, sorted and without duplicates.
			var nbrLats []time.Duration
			nbrLats, err = readBatches(ids, data.Adj.Nbr.Pull, func(b []int64, got map[int64][]int64) error {
				for _, id := range b {
					if !slices.Equal(got[id], adj[id]) {
						return fmt.Errorf("%w: vertex %d has %d neighbours on the servers, %d in the input",
							errCheck, id, len(got[id]), len(adj[id]))
					}
				}
				return nil
			})
			r.lookups = append(r.lookups, nbrLats...)
		}
		r.ops = int64(len(r.lookups))
		if err != nil {
			return r, err
		}
		return r, checkErr
	}, nil
}
