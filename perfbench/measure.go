package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// heapSampler samples the Go heap in use from outside the program, via
// runtime/metrics, and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapEvery is the sampling period: short enough that a peak is missed
// by a few MB at most at the allocation rates seen here, long enough not
// to compete with the program for the two CPUs.
const heapEvery = 5 * time.Millisecond

// startHeapSampler samples every heapEvery until Stop.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: heapInUse()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapMetric}}
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in use.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	if v := heapInUse(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// settledHeap collects garbage and returns the live heap, the baseline
// the memory metric is taken above.
func settledHeap() uint64 {
	runtime.GC()
	return heapInUse()
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostBusy returns the CPU time the whole host spent in user and system
// mode and in interrupts (loopback TCP is processed in softirq) plus the
// time the hypervisor stole from it, from /proc/stat (in USER_HZ = 100
// ticks per second). ok is false where that is unavailable.
func hostBusy() (d time.Duration, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	var ticks int64
	for _, i := range []int{1, 2, 3, 6, 7, 8} { // user, nice, system, irq, softirq, steal
		n, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, false
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, true
}

// gcCounters are the runtime's allocation and GC totals.
type gcCounters struct {
	allocBytes uint64
	cycles     uint32
	pauseNs    uint64
}

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{allocBytes: ms.TotalAlloc, cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

func (a gcCounters) sub(b gcCounters) gcCounters {
	return gcCounters{allocBytes: a.allocBytes - b.allocBytes, cycles: a.cycles - b.cycles, pauseNs: a.pauseNs - b.pauseNs}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. It returns 0 for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// gitCommit reads the checked-out commit from .git without running git;
// benchmark checkouts are often not git repositories.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}
