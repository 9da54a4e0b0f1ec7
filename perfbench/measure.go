package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// phase is what one timed repetition cost the process.
type phase struct {
	wall     time.Duration
	cpu      time.Duration // user+sys time of the whole process
	alloc    uint64        // bytes allocated (TotalAlloc delta)
	peakHeap uint64        // highest sampled live-heap reading
}

// heapSampleEvery is the peak-heap sampling period: short enough to
// catch the heap between collections of a multi-second run, long enough
// that the sampler costs well under 1% of a core.
const heapSampleEvery = 2 * time.Millisecond

// meter measures one timed phase. The heap sampler reads runtime/metrics,
// which does not stop the world, so sampling does not perturb the
// program the way runtime.ReadMemStats would.
type meter struct {
	start  time.Time
	cpu0   time.Duration
	alloc0 uint64

	peak uint64 // written by the sampler until done closes
	stop chan struct{}
	done chan struct{}
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	m.peak = heapObjects()
	m.cpu0 = cpuTime()
	m.alloc0 = totalAlloc()
	go m.sample()
	m.start = time.Now()
	return m
}

func (m *meter) sample() {
	defer close(m.done)
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.peak = max(m.peak, heapObjects())
		}
	}
}

// end stops the meter and returns the phase.
func (m *meter) end() phase {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu0
	alloc := totalAlloc() - m.alloc0
	close(m.stop)
	<-m.done
	return phase{wall: wall, cpu: cpu, alloc: alloc, peakHeap: max(m.peak, heapObjects())}
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// heapObjects reads the bytes held by heap objects, live or not yet
// swept — runtime.MemStats.HeapAlloc without stopping the world. Only
// the sampler goroutine and end (after the sampler exits) call it.
func heapObjects() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
