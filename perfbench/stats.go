package main

import (
	"math"
	"sort"
)

// dist is a sample of one measured quantity (latencies, per-repetition
// wall times, ...). Percentiles are nearest-rank over the sorted sample.
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(x ...float64) {
	d.v = append(d.v, x...)
	d.sorted = false
}

func (d *dist) n() int { return len(d.v) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or NaN for
// an empty sample.
func (d *dist) quantile(q float64) float64 {
	if len(d.v) == 0 {
		return math.NaN()
	}
	d.sort()
	i := int(math.Ceil(q*float64(len(d.v)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d.v) {
		i = len(d.v) - 1
	}
	return d.v[i]
}

func (d *dist) median() float64 { return d.quantile(0.5) }

func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// beyond counts the samples strictly above the q-quantile's rank: a
// percentile is reported only when at least minBeyond samples lie past
// it, so a p99 needs at least 1000 samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// minBeyond is the tail support a reported percentile needs.
const minBeyond = 10

// supported reports whether the q-quantile of the sample has at least
// minBeyond samples beyond it.
func (d *dist) supported(q float64) bool { return beyond(len(d.v), q) >= minBeyond }
