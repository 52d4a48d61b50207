package main

import (
	"fmt"
	"time"

	"psgraph/internal/core"
	"psgraph/internal/dataflow"
)

type layerMetric struct{ name, unit string }

// layerNames lists every per-layer metric a traced run prints. A layer a
// workload does not exercise reads 0. LAYERS.md says which end-to-end
// metric each should move, on which workload.
var layerNames = func() []layerMetric {
	var out []layerMetric
	for _, f := range families {
		out = append(out,
			layerMetric{"rpc." + f + ".calls", "count"},
			layerMetric{"rpc." + f + ".mb", "MB"},
			layerMetric{"rpc." + f + ".call_s", "s"},
			layerMetric{"rpc." + f + ".errors", "count"})
	}
	for _, f := range serverFamilies {
		out = append(out, layerMetric{"ps.server." + f + ".busy_s", "s"})
	}
	return append(out,
		layerMetric{"ps.master.sync_wait_s", "s"},
		layerMetric{"ps.master.meta.busy_s", "s"},
		layerMetric{"ps.server.mut_applied", "count"},
		layerMetric{"ps.server.mut_replayed", "count"},
		layerMetric{"ps.server.resident_mb", "MB"},
		layerMetric{"ps.client.comm_mb", "MB"},
		layerMetric{"ps.client.push_p50_ms", "ms"},
		layerMetric{"ps.client.push_p99_ms", "ms"},
		layerMetric{"ps.client.pull_p50_ms", "ms"},
		layerMetric{"dataflow.self_s", "s"},
		layerMetric{"dataflow.tasks_run", "count"},
		layerMetric{"dataflow.tasks_retried", "count"},
		layerMetric{"dataflow.shuffle_mb", "MB"},
		layerMetric{"dataflow.peak_exec_mb", "MB"},
		layerMetric{"core.iterations", "count"},
		layerMetric{"core.epoch_p50_s", "s"},
		layerMetric{"core.preprocess_s", "s"},
		layerMetric{"serve.cache_hit_ratio", "ratio"},
		layerMetric{"serve.offload_share", "ratio"},
		layerMetric{"serve.snap_rows", "count"},
		layerMetric{"serve.primary_rows", "count"},
		layerMetric{"serve.publish_s", "s"},
		layerMetric{"serve.publishes", "count"},
		layerMetric{"go.alloc_mb", "MB"},
		layerMetric{"go.gc_cycles", "count"},
		layerMetric{"go.gc_pause_ms", "ms"},
		layerMetric{"loadgen.late_p99_ms", "ms"},
		layerMetric{"loadgen.lookups", "count"},
	)
}()

// job measures one training job from outside: wall and CPU time always,
// and on traced rounds the program's own counters before and after.
type job struct {
	ctx *core.Context
	tr  *Tracer

	start      time.Time
	cpu0       time.Duration
	gc0        gcCounters
	sent, recv int64
	applied    int64
	replayed   int64
	df         dataflow.Stats

	wall, cpu time.Duration
	gc        gcCounters
}

func startJob(ctx *core.Context, tr *Tracer) (*job, error) {
	j := &job{ctx: ctx, tr: tr}
	if tr != nil {
		var err error
		if j.applied, j.replayed, err = ctx.PS.MutationTotals(); err != nil {
			return nil, err
		}
		j.sent, j.recv = ctx.Agent.Comm()
		j.df = ctx.Spark.Stats()
		j.gc0 = readGC()
		tr.StartJob()
	}
	j.cpu0 = cpuTime()
	j.start = time.Now()
	return j, nil
}

func (j *job) end(name string) {
	j.wall = time.Since(j.start)
	j.cpu = cpuTime() - j.cpu0
	if j.tr != nil {
		j.tr.EndJob(name)
		j.gc = readGC().sub(j.gc0)
	}
}

// layers derives the per-layer values of a traced job from its spans and
// the program's counters. It also reconciles the bytes the tracer saw on
// the agent's calls with the agent's own Comm counters.
func (j *job) layers() (map[string]float64, []Span, error) {
	spans := j.tr.Spans()
	l := map[string]float64{}
	master := j.ctx.PS.MasterAddr
	var agentReq, agentResp int64
	var agentCall time.Duration
	var pushMs, pullMs []float64
	for _, s := range spans {
		f := family(s.Method)
		switch s.Kind {
		case kindCall:
			l["rpc."+f+".calls"]++
			l["rpc."+f+".mb"] += float64(s.Req+s.Resp) / 1e6
			l["rpc."+f+".call_s"] += s.dur().Seconds()
			if s.Err {
				l["rpc."+f+".errors"]++
			}
			if s.Origin != originAgent {
				continue
			}
			agentReq += int64(s.Req)
			agentResp += int64(s.Resp)
			agentCall += s.dur()
			switch f {
			case "push":
				pushMs = append(pushMs, float64(s.dur())/1e6)
			case "pull":
				pullMs = append(pullMs, float64(s.dur())/1e6)
			}
		case kindHandler:
			switch {
			case s.Addr == master && f == "sync":
				l["ps.master.sync_wait_s"] += s.dur().Seconds()
			case s.Addr == master && f == "meta":
				l["ps.master.meta.busy_s"] += s.dur().Seconds()
			case s.Addr != master:
				l["ps.server."+f+".busy_s"] += s.dur().Seconds()
			}
		}
	}
	sent, recv := j.ctx.Agent.Comm()
	if agentReq != sent-j.sent || agentResp != recv-j.recv {
		return l, spans, fmt.Errorf("%w: tracer saw %d/%d agent bytes sent/received, Client.Comm moved %d/%d",
			errCheck, agentReq, agentResp, sent-j.sent, recv-j.recv)
	}
	l["ps.client.comm_mb"] = float64(sent-j.sent+recv-j.recv) / 1e6
	l["ps.client.push_p50_ms"] = quantile(pushMs, 0.5)
	l["ps.client.push_p99_ms"] = quantile(pushMs, 0.99)
	l["ps.client.pull_p50_ms"] = quantile(pullMs, 0.5)
	l["dataflow.self_s"] = float64(executors)*j.wall.Seconds() - agentCall.Seconds()

	applied, replayed, err := j.ctx.PS.MutationTotals()
	if err != nil {
		return l, spans, err
	}
	l["ps.server.mut_applied"] = float64(applied - j.applied)
	l["ps.server.mut_replayed"] = float64(replayed - j.replayed)
	stats, err := j.ctx.PS.Stats()
	if err != nil {
		return l, spans, err
	}
	for _, s := range stats {
		l["ps.server.resident_mb"] += float64(s.Bytes) / 1e6
	}
	df := j.ctx.Spark.Stats()
	l["dataflow.tasks_run"] = float64(df.TasksRun - j.df.TasksRun)
	l["dataflow.tasks_retried"] = float64(df.TasksRetried - j.df.TasksRetried)
	l["dataflow.shuffle_mb"] = float64(df.ShuffleBytes-j.df.ShuffleBytes) / 1e6
	l["dataflow.peak_exec_mb"] = float64(df.PeakExecBytes) / 1e6
	l["go.alloc_mb"] = float64(j.gc.allocBytes) / 1e6
	l["go.gc_cycles"] = float64(j.gc.cycles)
	l["go.gc_pause_ms"] = float64(j.gc.pauseNs) / 1e6
	return l, spans, nil
}
