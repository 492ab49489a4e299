package main

import (
	"sort"
	"time"
)

// The box the benchmark runs on is a few vCPUs of a shared host, each beside
// a neighbour's hyperthread, and it moves between speeds up to 1.9x apart
// and stays in one for seconds to minutes, with nothing stolen that
// /proc/stat would show. calibrate times a fixed piece of work of the same
// kind as the program's (wide integer arithmetic, hash lookups, sorting) on
// the same core; the harness runs it before and after every round and every
// set-up and scales the times measured in between by calibRefMS over what
// the work took. A reported time is therefore the time the op would have
// taken on the reference box in its calm state. Latency-bound kernels (one
// dependency chain, pointer chasing) were measured too and do not follow the
// program's slowdown; this one does, to within a few per cent (README).

// calibRefMS is what calibrate takes on the reference box when the
// neighbours are quiet.
const calibRefMS = 15.5

const calibKeys = 80_000

var (
	calibSink uint64
	calibKey  []int
	calibMap  map[int]int
	calibBuf  []int
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func init() {
	calibKey = make([]int, calibKeys)
	calibBuf = make([]int, calibKeys)
	calibMap = make(map[int]int, calibKeys)
	x := uint64(4242)
	for i := range calibKey {
		x = xorshift(x)
		calibKey[i] = int(x % 1_000_003)
		calibMap[calibKey[i]] = i
	}
}

// calibrate allocates nothing, so the collector never runs inside it.
func calibrate() time.Duration {
	t := time.Now()
	// Eight independent chains: work that fills the core's issue slots, which
	// is what a busy sibling hyperthread takes away.
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 1_200_000; i++ {
		a, b, c, d = xorshift(a), xorshift(b), xorshift(c), xorshift(d)
		e, f, g, h = xorshift(e), xorshift(f), xorshift(g), xorshift(h)
	}
	// Hash lookups (half of them misses) and a sort over a few MB: branches
	// and the shared caches.
	s := 0
	for _, k := range calibKey {
		s += calibMap[k] + calibMap[k+1]
	}
	copy(calibBuf, calibKey)
	sort.Ints(calibBuf)
	calibSink += a + b + c + d + e + f + g + h + uint64(s+calibBuf[calibKeys/2])
	return time.Since(t)
}

// speed is the factor that turns a time measured between two calibrations
// into reference time.
func speed(before, after time.Duration) float64 {
	return calibRefMS / ms((before+after)/2)
}
