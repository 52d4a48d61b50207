package main

import (
	"fmt"
	"runtime"
	"time"

	"psgraph/internal/core"
	"psgraph/internal/dfs"
	"psgraph/internal/gen"
	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// lookupBatch is the ids per lookup. The training workloads' lookups are
// the reads their correctness checks make of the job's output, issued in
// batches of this size, one after another from one goroutine.
const lookupBatch = 128

// newContext starts the in-process cluster every training workload runs
// on, with zero injected latency. Traced rounds put a Tracer in as the
// transport and rebuild the executors' agent on its agent view, so the
// tracer can tell the agent's calls from the master's.
func newContext(traced bool) (*core.Context, *Tracer, error) {
	cfg := core.Config{NumExecutors: executors, NumServers: servers, Partitions: parts}
	var tr *Tracer
	if traced {
		tr = NewTracer(rpc.NewInProc())
		cfg.Transport = tr
	}
	ctx, err := core.NewContext(cfg)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		ctx.Agent = ps.NewClient(tr.Caller(originAgent), ctx.PS.MasterAddr)
	}
	return ctx, tr, nil
}

// edgesText renders edges in the program's DFS text format.
func edgesText(edges []gen.Edge) ([]byte, error) {
	fs := dfs.NewDefault()
	if err := gen.WriteEdgesText(fs, "/e", edges, false); err != nil {
		return nil, err
	}
	return fs.ReadFile("/e")
}

// readBatches reads ids in consecutive batches of lookupBatch through
// pull, timing each pull as one lookup, and hands every batch's result to
// keep, which checks it. A pull that fails ends the reads.
//
// The garbage the job left is collected first. All the reads of a job take
// a few milliseconds; timed against a collection of the job's heap still
// in progress, they would measure where that collection stood.
func readBatches[T any](ids []int64, pull func([]int64) (T, error), keep func([]int64, T) error) ([]time.Duration, error) {
	runtime.GC()
	lats := make([]time.Duration, 0, (len(ids)+lookupBatch-1)/lookupBatch)
	for lo := 0; lo < len(ids); lo += lookupBatch {
		b := ids[lo:min(lo+lookupBatch, len(ids))]
		t := time.Now()
		got, err := pull(b)
		d := time.Since(t)
		if err != nil {
			return lats, err
		}
		lats = append(lats, d)
		if err := keep(b, got); err != nil {
			return lats, err
		}
	}
	return lats, nil
}

// keepRows returns a keep function for readBatches that gathers embedding
// rows of width dim into rows, failing the check on a missing or short row.
func keepRows(rows map[int64][]float64, dim int) func([]int64, map[int64][]float64) error {
	return func(ids []int64, got map[int64][]float64) error {
		for _, id := range ids {
			if len(got[id]) != dim {
				return fmt.Errorf("%w: lookup returned %d values for row %d", errCheck, len(got[id]), id)
			}
			rows[id] = got[id]
		}
		return nil
	}
}
