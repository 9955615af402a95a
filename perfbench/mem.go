package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

const mb = 1 << 20

// allocs is a reading of the process's cumulative heap allocations.
type allocs struct {
	objects, bytes uint64
}

// readAllocs reads the allocation totals exactly (ReadMemStats flushes
// every P's cache); it is called only at the edges of a measured region.
func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{objects: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (a allocs) since(before allocs) allocs {
	return allocs{objects: a.objects - before.objects, bytes: a.bytes - before.bytes}
}

// heapObjects is the runtime/metrics series the peak-heap sampler reads:
// bytes in live plus not-yet-swept heap objects. Reading it does not stop
// the world.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapPeakEvery is the peak-heap sampling period. On 2 cores no workload
// allocates more than ~350 MB/s relative to a peak heap of 30-310 MB, so
// the heap grows by under 2% between samples, and the sampler wakes
// rarely enough not to compete with the selections' workers.
const heapPeakEvery = 5 * time.Millisecond

// heapPeak samples heapObjects every heapPeakEvery on its own goroutine
// and keeps the maximum.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

// startHeapPeak collects garbage first, so set-up leftovers never count
// toward the peak.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjects}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapPeakEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / mb
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / mb
}
