package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"
)

// calibrationBurst measures the host's current speed on a fixed kernel
// that uses none of Clara's code, run on every client goroutine for d. It
// returns kernel rounds per second over all clients.
//
// A full collection runs first, so no collection the workload started is
// still marking during the burst: the burst samples the host, not the tail
// of Clara's garbage collection.
func calibrationBurst(d time.Duration) float64 {
	var wg sync.WaitGroup
	counts := make([]int, clients)
	sums := make([]uint64, clients)
	kernels := calibKernels()
	runtime.GC()
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := kernels[c]
			for time.Now().Before(end) {
				sums[c] += k.round()
				counts[c]++
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for c, n := range counts {
		total += n
		calibSink += sums[c]
	}
	return float64(total) / time.Since(start).Seconds()
}

// calibSink keeps the kernel's results live so the compiler cannot drop
// the work.
var calibSink uint64

// calibKernels are the clients' kernels, allocated once per process.
var calibKernels = sync.OnceValue(func() []*calibKernel {
	ks := make([]*calibKernel, clients)
	for c := range ks {
		ks[c] = newCalibKernel(int64(c + 1))
	}
	return ks
})

// calibKernel is one goroutine's calibration state. Its buffers are
// allocated once, so rounds do not allocate: the kernel's speed must not
// depend on the garbage collector's work on the workload's heap.
type calibKernel struct {
	seed int64
	rng  *rand.Rand
	m    map[uint64]uint32
	keys []uint64
	buf  []byte
}

const calibKeys = 1 << 14

func newCalibKernel(seed int64) *calibKernel {
	return &calibKernel{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
		m:    make(map[uint64]uint32, calibKeys),
		keys: make([]uint64, calibKeys),
		buf:  make([]byte, 0, 1<<19),
	}
}

// round is one unit of the calibration kernel, in two halves of about
// equal time. The first inserts fixed pseudo-random keys into a map, sorts
// them and looks them up: the map and slice work of the analysis and the
// simulator. The second draws random bytes one at a time, as trace
// synthesis does.
func (k *calibKernel) round() uint64 {
	clear(k.m)
	x := uint64(k.seed)*0x9E3779B97F4A7C15 | 1
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.keys[i] = x
		k.m[x%(calibKeys*4)] += uint32(i)
	}
	slices.Sort(k.keys)
	var sum uint64
	for _, key := range k.keys {
		sum += uint64(k.m[key%(calibKeys*4)])
	}
	// The loop appends to a local slice: the two clients' kernels may
	// share a cache line, and writing k's slice header on every byte runs
	// the loop at a third of its speed.
	k.rng.Seed(k.seed)
	rng, buf := k.rng, k.buf[:0]
	for len(buf) < cap(buf) {
		buf = append(buf, byte(rng.Intn(256)))
	}
	k.buf = buf
	return sum + uint64(buf[len(buf)-1])
}
