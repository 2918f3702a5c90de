package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The bench host's speed drifts with its neighbours' load, in phases
// that last seconds to minutes, so a run can fall wholly into a slow or
// a fast one. Host times are therefore scaled to a reference host:
// after every simulation and every setup round the benchmark times two
// loops of its own, and the run's host times are divided by the median
// of those readings. A reading is the geometric mean of the two loops'
// slow-downs against the reference host: an integer loop of eight
// independent lanes, which slows when the core's execution ports are
// shared, and a dependent-load chase over a table the size of a
// radix-18 model's heap, which slows with the memory latency. The model
// is bound by both: the chase alone missed a phase the model showed,
// and the lanes alone swing about twice as far as the model (NOTES.md). The loops are this package's code, so a change to the
// model moves the scaled times and leaves the loops alone.
const (
	calibWords   = 1 << 21 // 16 MiB
	calibLoads   = 50_000
	calibIters   = 500_000
	calibRepeats = 3
	// ns per load and per iteration on the reference host (NOTES.md),
	// so that scaled times read close to that host's seconds.
	calibChaseNS = 145.0
	calibLanesNS = 6.4
)

// calibrator holds the chase's table. It is mapped outside the Go heap,
// so it neither moves the collector's pacing nor gets scanned; its
// resident size is known exactly and left out of peak_rss_mb.
type calibrator struct {
	table []uint64
	sink  uint64
}

func newCalibrator() (*calibrator, error) {
	t, err := mapWords(calibWords)
	if err != nil {
		return nil, err
	}
	fillChase(t)
	return &calibrator{table: t}, nil
}

// mapWords maps n zeroed uint64 words of anonymous memory.
func mapWords(n int) ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", n*8, err)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
}

// fillChase writes a pseudo-random value into every word, touching
// every page.
func fillChase(t []uint64) {
	x := uint64(1)
	for i := range t {
		x = x*6364136223846793005 + 1442695040888963407
		t[i] = x >> 11
	}
}

// residentMB is the calibrator's resident size, which peakRSSMB leaves
// out.
func (c *calibrator) residentMB() float64 {
	return float64(8*len(c.table)) / (1 << 20)
}

// slowdown returns the host's current slow-down against the reference
// host: 1.2 means it runs 20% slower than the reference did.
func (c *calibrator) slowdown() float64 {
	return math.Sqrt(medianOf(c.chase)/calibChaseNS) * math.Sqrt(medianOf(c.lanes)/calibLanesNS)
}

// medianOf is the median of calibRepeats timings.
func medianOf(f func() float64) float64 {
	var v [calibRepeats]float64
	for r := range v {
		v[r] = f()
	}
	sort.Float64s(v[:])
	return v[calibRepeats/2]
}

// chase makes calibLoads dependent loads over the table and returns ns
// per load.
func (c *calibrator) chase() float64 {
	mask := uint64(len(c.table) - 1)
	x := c.sink
	t0 := time.Now()
	for i := range calibLoads {
		x = c.table[(x^uint64(i))&mask]
	}
	ns := float64(time.Since(t0).Nanoseconds())
	c.sink = x
	return ns / calibLoads
}

// lanes runs calibIters rounds of eight independent xorshift lanes and
// returns ns per round.
func (c *calibrator) lanes() float64 {
	a, b, d, e, f, g, h, k := c.sink, uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	t0 := time.Now()
	for range calibIters {
		a ^= a << 13
		b ^= b << 13
		d ^= d << 13
		e ^= e << 13
		f ^= f >> 7
		g ^= g >> 7
		h ^= h >> 7
		k ^= k >> 7
		a += b
		d += e
		f += g
		h += k
		b ^= b << 17
		e ^= e << 17
		g ^= g << 17
		k ^= k << 17
	}
	ns := float64(time.Since(t0).Nanoseconds())
	c.sink = a ^ b ^ d ^ e ^ f ^ g ^ h ^ k
	return ns / calibIters
}
