package main

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// The reference kernel gauges the host's current speed. A shared host
// drifts by 20–40% over minutes, which swamps the run-to-run difference
// the benchmark exists to see, so before every arm the kernel runs once on
// each P at the same time (the simulator uses them all: the GC's workers
// and ShardRun run beside the event loop, and the P's CPUs need not slow
// alike), and the end-to-end times are scaled to a host on which one run
// takes refNominalS. The kernel imitates the simulator's mix
// (an event heap with small allocations, 1500-byte buffer copies,
// byte-table lookups and reads from a 4 MiB table) and imports nothing
// from the simulator, so no change to the simulator changes its cost.
// Its buffers and tables live outside the heap and it allocates little,
// so neither the GC's state nor the benchmark's live heap moves it.

// refNominalS is the kernel's time on the host the benchmark was
// calibrated on (2-core AMD EPYC, go1.24); it only sets the scale.
const refNominalS = 0.0075

type refEvent struct {
	at, seq uint64
	buf     []byte
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

const (
	refLive  = 2048 // events in the kernel's heap
	refLanes = 4    // most kernels run at once, each on its own buffers
)

var (
	refTable [16][256]uint64
	refBig   [1 << 19]uint64
	refSrc   [4096]byte
	refBufs  [refLanes][refLive][1500]byte
)

func init() {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range refTable {
		for j := range refTable[i] {
			x = xorshift(x)
			refTable[i][j] = x
		}
	}
	for i := range refBig {
		x = xorshift(x)
		refBig[i] = x
	}
	for i := range refSrc {
		refSrc[i] = byte(i * 7)
	}
}

// refSink keeps the kernels' results live.
var refSink uint64

// referenceWork runs the fixed kernel once on bufs.
func referenceWork(bufs *[refLive][1500]byte) uint64 {
	const events = 4000
	h := make(refHeap, 0, refLive)
	var acc, seq uint64
	x := uint64(1)
	for i := range bufs {
		seq++
		heap.Push(&h, &refEvent{at: uint64(i * 37 % 1001), seq: seq, buf: bufs[i][:]})
	}
	for n := 0; n < events; n++ {
		e := heap.Pop(&h).(*refEvent)
		copy(e.buf, refSrc[n%2048:])
		for k := 0; k < 48; k++ {
			b := e.buf[k*16 : k*16+16]
			for j := 0; j < 16; j++ {
				acc = acc<<8 ^ refTable[j][b[j]^byte(acc)]
			}
			acc += refBig[acc&(1<<19-1)]
		}
		x = xorshift(x)
		seq++
		heap.Push(&h, &refEvent{at: e.at + 1 + x%2000, seq: seq, buf: e.buf})
	}
	return acc
}

// referenceS runs the kernel on each P (up to refLanes) at once and
// returns the mean of their host seconds.
func referenceS() float64 {
	n := min(runtime.GOMAXPROCS(0), refLanes)
	secs := make([]float64, n)
	accs := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			accs[i] = referenceWork(&refBufs[i])
			secs[i] = time.Since(t0).Seconds()
		}(i)
	}
	wg.Wait()
	var mean float64
	for i := range secs {
		mean += secs[i] / float64(n)
		refSink += accs[i]
	}
	return mean
}
