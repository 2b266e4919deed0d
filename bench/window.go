package bench

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// window measures one timed stretch of a workload: wall time, the bytes
// the process allocated (runtime.MemStats.TotalAlloc), and the peak heap
// in use, sampled every 10 ms.
type window struct {
	start  time.Time
	alloc0 uint64
	peak   uint64
	stop   chan struct{}
	done   chan struct{}
}

// startWindow collects garbage left by set-up, so every window starts
// from the same heap, and starts the heap sampler.
func startWindow() *window {
	runtime.GC()
	w := &window{stop: make(chan struct{}), done: make(chan struct{})}
	w.alloc0 = totalAlloc()
	w.start = time.Now()
	go w.sample()
	return w
}

func (w *window) sample() {
	defer close(w.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	for {
		// objects + unused is MemStats.HeapInuse, read without stopping
		// the world.
		metrics.Read(s)
		if h := s[0].Value.Uint64() + s[1].Value.Uint64(); h > w.peak {
			w.peak = h
		}
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the window and returns its wall time, bytes allocated,
// and peak heap in use.
func (w *window) finish() (wall time.Duration, alloc, peak uint64) {
	wall = time.Since(w.start)
	alloc = totalAlloc() - w.alloc0
	close(w.stop)
	<-w.done
	return wall, alloc, w.peak
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
