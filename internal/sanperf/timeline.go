// Package sanperf models the performance side of the SAN: how concurrent
// loads on volumes translate into disk utilization and I/O response times.
//
// The model is analytic rather than discrete-event: every load source
// (database query runs, external application workloads, RAID rebuilds)
// contributes piecewise-constant load segments to a timeline, and response
// times follow an M/M/1-style utilization law over the disks a volume
// stripes across. This reproduces the causal structure the paper's
// diagnosis scenarios depend on — most importantly that two volumes carved
// from the same pool contend for the same spindles, so a misconfigured
// volume V' degrades V1 without touching V2.
package sanperf

import (
	"math"
	"sort"
	"sync"

	"diads/internal/simtime"
)

// Segment is one piecewise-constant load contribution.
type Segment struct {
	Iv     simtime.Interval
	V      float64
	Source string // who contributes this load (workload, query run, fault)
}

// forever is the until of a value that never changes.
var forever = simtime.Time(math.Inf(1))

// Timeline accumulates named piecewise-constant quantities. The value of a
// key at time t is the sum of all segments active at t. It is safe for
// concurrent use.
type Timeline struct {
	mu   sync.RWMutex
	segs map[string][]Segment
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{segs: make(map[string][]Segment)}
}

// Add contributes a segment of value v to key over iv.
func (tl *Timeline) Add(key string, iv simtime.Interval, v float64, source string) {
	if iv.Length() <= 0 || v == 0 {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.segs[key] = append(tl.segs[key], Segment{Iv: iv, V: v, Source: source})
}

// At returns the summed value of key at time t.
func (tl *Timeline) At(key string, t simtime.Time) float64 {
	v, _ := tl.AtUntil(key, t)
	return v
}

// AtUntil returns the summed value of key at time t together with the
// next segment boundary after t: the earliest start of a segment that
// begins after t or end of one that covers t (+Inf when none). No
// segment starts or ends inside (t, until), so the value holds on
// [t, until). Both come from one pass over the key's segments, summed
// in the same order as At.
func (tl *Timeline) AtUntil(key string, t simtime.Time) (v float64, until simtime.Time) {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	until = forever
	for _, s := range tl.segs[key] {
		switch {
		case s.Iv.Contains(t):
			v += s.V
			until = min(until, s.Iv.End)
		case s.Iv.Start > t:
			until = min(until, s.Iv.Start)
		}
	}
	return v, until
}

// MeanOver returns the time-average of key over iv.
func (tl *Timeline) MeanOver(key string, iv simtime.Interval) float64 {
	if iv.Length() <= 0 {
		return tl.At(key, iv.Start)
	}
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	var weighted float64
	for _, s := range tl.segs[key] {
		weighted += s.V * float64(s.Iv.Overlap(iv))
	}
	return weighted / float64(iv.Length())
}

// MeansOver sets out[i] to MeanOver(key, windows[i]) for every window,
// bit for bit, under one lock, one lookup and one pass over the key's
// segments. windows must be in ascending order and pairwise disjoint,
// as a sampling grid is; out must be as long as windows.
//
// Each segment adds its term only to the windows it can touch, found
// by binary search. The terms it skips are s.V × 0 = ±0, and adding a
// zero to a sum that started at +0 never changes it, so each window's
// sum sees the same nonzero terms in the same order as MeanOver's.
func (tl *Timeline) MeansOver(key string, windows []simtime.Interval, out []float64) {
	out = out[:len(windows)]
	clear(out)
	tl.mu.RLock()
	for _, s := range tl.segs[key] {
		// The first window ending at or after the segment's start: the
		// earliest that can overlap it or, when empty, lie inside it.
		lo, hi := 0, len(windows)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if windows[mid].End < s.Iv.Start {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for i := lo; i < len(windows) && windows[i].Start < s.Iv.End; i++ {
			w := windows[i]
			if w.Length() <= 0 {
				if s.Iv.Contains(w.Start) {
					out[i] += s.V // At's sum
				}
				continue
			}
			out[i] += s.V * float64(s.Iv.Overlap(w))
		}
	}
	tl.mu.RUnlock()
	for i, w := range windows {
		if w.Length() > 0 {
			out[i] /= float64(w.Length())
		}
	}
}

// Truncate drops segments whose intervals end at or before the horizon
// and returns how many were dropped. Reads at or above the horizon are
// bit-identical afterwards: intervals are half-open, so a dropped
// segment neither Contains any t >= before nor Overlaps any interval
// starting there — its contribution to every surviving accumulation was
// exactly zero. Keys left without segments are removed.
func (tl *Timeline) Truncate(before simtime.Time) int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	n := 0
	//lint:allow mapiter kept is loop-local and every map write/delete is keyed by the loop key
	for k, segs := range tl.segs {
		kept := segs[:0]
		for _, s := range segs {
			if s.Iv.End > before {
				kept = append(kept, s)
			}
		}
		n += len(segs) - len(kept)
		if len(kept) == 0 {
			delete(tl.segs, k)
			continue
		}
		// Reallocate when truncation freed a meaningful fraction, so the
		// dropped tail's backing array does not stay pinned.
		if cap(segs) > 2*len(kept) {
			kept = append(make([]Segment, 0, len(kept)), kept...)
		}
		tl.segs[k] = kept
	}
	return n
}

// SourcesAt returns the distinct sources contributing to key at t, sorted.
func (tl *Timeline) SourcesAt(key string, t simtime.Time) []string {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	seen := make(map[string]bool)
	for _, s := range tl.segs[key] {
		if s.Iv.Contains(t) && s.Source != "" {
			seen[s.Source] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Segments returns a copy of the segments recorded under key.
func (tl *Timeline) Segments(key string) []Segment {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	out := make([]Segment, len(tl.segs[key]))
	copy(out, tl.segs[key])
	return out
}

// Keys returns all keys with at least one segment, sorted.
func (tl *Timeline) Keys() []string {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	out := make([]string, 0, len(tl.segs))
	for k := range tl.segs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
