package main

import (
	"runtime"
	"strconv"
	"time"
)

// The reference kernel measures how fast the machine runs code like the
// simulator's at the moment: an event loop over a binary heap whose
// events name string keys looked up in a map. It uses no code of this
// repository, so no change to the repository can make it faster or
// slower; only the machine can. Like the simulator it allocates small
// objects as it goes, so it also feels the garbage collector running
// beside it.
//
// Other tenants of a shared machine slow everything running on it, in
// phases of a fraction of a second to minutes and by up to half again.
// Each repetition is therefore run between two runs of the kernel (a
// long one in parts, with a run between each two), and its end-to-end
// times are scaled by refKernel over the kernel's mean time around it:
// they read as seconds on the reference machine. A change
// to the repository still moves them in full, since the kernel does
// not run its code.

// refKernel is the kernel's time on the machine the benchmark was
// written on when no other tenant slowed it: 2 vCPUs of an
// "Intel(R) Xeon(R) Processor" under Go 1.24.
const refKernel = 30 * time.Millisecond

// calibrate times the kernel on a collected heap, so neither the kernel
// nor the workload pays for the other's garbage.
func calibrate() time.Duration {
	runtime.GC()
	k := kernel()
	runtime.GC()
	return k
}

const (
	kernelKeys   = 4096    // distinct keys in the kernel's map
	kernelEvents = 1024    // events pending in the kernel's heap
	kernelSteps  = 200_000 // events the kernel processes
)

type kernelEvent struct {
	t   float64
	key int32
}

// kernelKeyNames and kernelIndex are built once; the kernel allocates
// only its events.
var (
	kernelKeyNames = func() []string {
		keys := make([]string, kernelKeys)
		for i := range keys {
			keys[i] = "host-" + strconv.Itoa(i)
		}
		return keys
	}()
	kernelIndex = func() map[string]int32 {
		index := make(map[string]int32, kernelKeys)
		for i, k := range kernelKeyNames {
			index[k] = int32(i)
		}
		return index
	}()
	kernelSums = make([]float64, kernelKeys)
)

// kernel runs the reference kernel and returns its wall time.
func kernel() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := make([]*kernelEvent, 0, kernelEvents+1)
	for i := 0; i < kernelEvents; i++ {
		h = heapPush(h, &kernelEvent{float64(rnd()%1e6) / 1e6, int32(rnd() % kernelKeys)})
	}
	for i := 0; i < kernelSteps; i++ {
		var e *kernelEvent
		h, e = heapPop(h)
		kernelSums[kernelIndex[kernelKeyNames[e.key]]] += e.t
		h = heapPush(h, &kernelEvent{e.t + float64(rnd()%1e3)/1e6, int32(rnd() % kernelKeys)})
	}
	return time.Since(t0)
}

func heapPush(h []*kernelEvent, e *kernelEvent) []*kernelEvent {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []*kernelEvent) ([]*kernelEvent, *kernelEvent) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l].t < h[m].t {
			m = l
		}
		if r := l + 1; r < n && h[r].t < h[m].t {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h, top
}
