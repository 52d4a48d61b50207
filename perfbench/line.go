package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"psgraph/internal/core"
	"psgraph/internal/gen"
)

// LINE (order 2, psFunc path, BSP) on a DS1′-shaped R-MAT graph: the
// PS-server-dominated workload, where skewed hot rows hit the sharded
// embedding engine through the lineDot/lineUpdate psFuncs.
const (
	lineScale    = 14
	lineEdges    = 200_000
	lineDim      = 32
	lineEpochs   = 8
	lineHoldOut  = 0.01
	lineAUCFloor = 0.58
)

var lineWorkload = workload{
	name: "line",
	params: map[string]any{"rmat_scale": lineScale, "edges": lineEdges, "dim": lineDim, "order": 2,
		"epochs": lineEpochs, "sync": "bsp", "held_out": lineHoldOut, "auc_floor": lineAUCFloor},
	prepare: prepareLine,
}

func prepareLine(seed int64) (func(*probe) (*round, error), error) {
	all := gen.RMAT(gen.RMATConfig{Scale: lineScale, Edges: lineEdges, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	var train, test []gen.Edge
	for _, e := range all {
		if e.Src != e.Dst && rng.Float64() < lineHoldOut {
			test = append(test, e)
		} else {
			train = append(train, e)
		}
	}
	text, err := edgesText(train)
	if err != nil {
		return nil, err
	}
	seen := map[int64]bool{}
	var verts []int64
	for _, e := range train {
		for _, v := range []int64{e.Src, e.Dst} {
			if !seen[v] {
				seen[v] = true
				verts = append(verts, v)
			}
		}
	}
	sort.Slice(verts, func(a, b int) bool { return verts[a] < verts[b] })
	// The rows read back: every training vertex, and any held-out endpoint
	// the training edges never touch.
	read := slices.Clone(verts)
	for _, e := range test {
		for _, v := range []int64{e.Src, e.Dst} {
			if !seen[v] {
				seen[v] = true
				read = append(read, v)
			}
		}
	}
	slices.Sort(read)
	// One random negative per held-out edge: the same source with a
	// vertex drawn uniformly from the training graph.
	negs := make([]gen.Edge, len(test))
	for i, e := range test {
		w := e.Dst
		for w == e.Dst || w == e.Src {
			w = verts[rng.Intn(len(verts))]
		}
		negs[i] = gen.Edge{Src: e.Src, Dst: w}
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
		if err := ctx.FS.WriteFile("/in/edges.txt", text); err != nil {
			return nil, err
		}
		t1 := time.Now()
		loaded := core.LoadEdges(ctx, "/in/edges.txt", parts).Cache()
		count, err := loaded.Count()
		if err != nil {
			return nil, err
		}
		r.setup += time.Since(t1)

		j, err := startJob(ctx, tr)
		if err != nil {
			return nil, err
		}
		res, err := core.Line(ctx, loaded, core.LineConfig{
			Dim: lineDim, Order: 2, Epochs: lineEpochs, Seed: seed, Sync: "bsp",
		})
		j.end("line")
		p.jobDone()
		if err != nil {
			return nil, err
		}
		r.cpu = j.cpu
		r.tput = []float64{float64(count) * float64(res.Epochs) / j.wall.Seconds()}
		var checkErr error
		if p.traced {
			if r.layers, r.spans, err = j.layers(); err != nil {
				checkErr = err
			}
			r.layers["core.iterations"] = float64(res.Epochs)
			r.layers["core.epoch_p50_s"] = j.wall.Seconds() / float64(res.Epochs)
		}

		// The trained embedding and context rows of every vertex are read
		// back in lookups of lookupBatch ids; the AUC is scored from them.
		ctxEmb, err := ctx.Agent.Embedding(res.CtxName)
		if err != nil {
			return nil, err
		}
		emb, ctxv := map[int64][]float64{}, map[int64][]float64{}
		embLats, err := readBatches(read, res.Emb.Pull, keepRows(emb, lineDim))
		r.lookups = embLats
		if err == nil {
			var ctxLats []time.Duration
			ctxLats, err = readBatches(read, ctxEmb.Pull, keepRows(ctxv, lineDim))
			r.lookups = append(r.lookups, ctxLats...)
		}
		r.ops = int64(len(r.lookups))
		if err != nil {
			return r, err
		}
		r.quality = linkAUC(emb, ctxv, test, negs)
		if count != int64(len(train)) || res.Epochs != lineEpochs {
			return r, fmt.Errorf("%w: trained %d edges for %d epochs, want %d for %d",
				errCheck, count, res.Epochs, len(train), lineEpochs)
		}
		if r.quality < lineAUCFloor {
			return r, fmt.Errorf("%w: held-out link AUC %.4f below %.2f", errCheck, r.quality, lineAUCFloor)
		}
		return r, checkErr
	}, nil
}

// linkAUC scores each pair (u, v) by the cosine of u's embedding and v's
// context vector, the two vectors order-2 LINE trains against each other,
// and returns the probability that a held-out edge outscores a negative
// (ties count one half). Every endpoint has a row in emb and ctxv.
func linkAUC(emb, ctxv map[int64][]float64, pos, neg []gen.Edge) float64 {
	score := func(e gen.Edge) float64 {
		a, b := emb[e.Src], ctxv[e.Dst]
		var dot, na, nb float64
		for i := range a {
			dot += a[i] * b[i]
			na += a[i] * a[i]
			nb += b[i] * b[i]
		}
		return dot / math.Sqrt(na*nb)
	}
	type scored struct {
		s   float64
		pos bool
	}
	var all []scored
	for _, e := range pos {
		all = append(all, scored{score(e), true})
	}
	for _, e := range neg {
		all = append(all, scored{score(e), false})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].s < all[b].s })
	// Mann-Whitney U with mid-ranks for ties.
	var rankSum float64
	for i := 0; i < len(all); {
		k := i
		for k < len(all) && all[k].s == all[i].s {
			k++
		}
		mid := float64(i+k+1) / 2
		for ; i < k; i++ {
			if all[i].pos {
				rankSum += mid
			}
		}
	}
	np, nn := float64(len(pos)), float64(len(neg))
	return (rankSum - np*(np+1)/2) / (np * nn)
}
