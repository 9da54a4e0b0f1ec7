package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"diads/internal/simtime"
)

// TestTruncateDropsWholeSegments pins the segment granularity: a
// truncation horizon inside a segment frees only the segments fully
// below it, and the retained sample set is exactly the suffix at or
// above the first surviving segment.
func TestTruncateDropsWholeSegments(t *testing.T) {
	s := NewStore()
	n := 3*segmentSize + 17
	fill(s, "vol-V1", n, func(i int) float64 { return float64(i) })

	// Horizon in the middle of the second segment: only segment 0 drops.
	horizon := simtime.Time((segmentSize + segmentSize/2) * 300)
	dropped := s.Truncate(horizon)
	if dropped != segmentSize {
		t.Fatalf("Truncate dropped %d samples, want %d (one whole segment)", dropped, segmentSize)
	}
	if got := s.Len(); got != n-segmentSize {
		t.Fatalf("Len = %d after truncation, want %d", got, n-segmentSize)
	}
	if got := s.Dropped(); got != segmentSize {
		t.Fatalf("Dropped = %d, want %d", got, segmentSize)
	}
	ser := s.Series("vol-V1", VolReadIO)
	if len(ser) != n-segmentSize || ser[0].T != simtime.Time(segmentSize*300) {
		t.Fatalf("retained series starts at %v (%d samples), want %v (%d)",
			ser[0].T, len(ser), simtime.Time(segmentSize*300), n-segmentSize)
	}
	// Re-truncating at the same horizon is a no-op.
	if again := s.Truncate(horizon); again != 0 {
		t.Fatalf("second Truncate dropped %d, want 0", again)
	}
}

// TestTruncateCursorsSurvive pins the Since contract across truncation:
// cursors are absolute, so a cursor taken before Truncate resumes at the
// first retained sample and never replays or skips live samples.
func TestTruncateCursorsSurvive(t *testing.T) {
	s := NewStore()
	fill(s, "vol-V1", segmentSize, func(i int) float64 { return float64(i) })
	firstHalf, cursor := s.Since("vol-V1", VolReadIO, 0)
	if len(firstHalf) != segmentSize || cursor != segmentSize {
		t.Fatalf("Since(0) = %d samples, cursor %d", len(firstHalf), cursor)
	}

	for i := segmentSize; i < 3*segmentSize; i++ {
		s.MustAppend("vol-V1", VolReadIO, Sample{T: simtime.Time(i * 300), V: float64(i)})
	}
	s.Truncate(simtime.Time(2 * segmentSize * 300)) // drops segments 0 and 1

	// The pre-truncation cursor points into the dropped prefix; it must
	// resume at the first retained sample.
	tail, next := s.Since("vol-V1", VolReadIO, cursor)
	if len(tail) != segmentSize || tail[0].T != simtime.Time(2*segmentSize*300) {
		t.Fatalf("post-truncation Since resumed at %v with %d samples, want %v with %d",
			tail[0].T, len(tail), simtime.Time(2*segmentSize*300), segmentSize)
	}
	if next != 3*segmentSize {
		t.Fatalf("cursor advanced to %d, want %d", next, 3*segmentSize)
	}
	if more, _ := s.Since("vol-V1", VolReadIO, next); len(more) != 0 {
		t.Fatalf("drained cursor returned %d samples, want 0", len(more))
	}

	// Appends continue seamlessly after truncation.
	s.MustAppend("vol-V1", VolReadIO, Sample{T: simtime.Time(3 * segmentSize * 300), V: 1})
	if latest, ok := s.Latest("vol-V1", VolReadIO); !ok || latest.T != simtime.Time(3*segmentSize*300) {
		t.Fatalf("Latest after post-truncation append = %v/%v", latest, ok)
	}
}

// TestTruncateFloatExactProperty is the retention contract's property
// test: for random series and random truncation points, WindowMean and
// WindowStats over any window at or above the horizon are BIT-identical
// before and after Truncate. Exactness (not approximate equality) is
// what lets the fleet run retention under its byte-determinism
// invariant, so the comparison is == on every float, not a tolerance.
func TestTruncateFloatExactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		n := 50 + rng.Intn(4*segmentSize)
		ref := NewStore() // never truncated
		cut := NewStore() // truncated mid-stream, possibly repeatedly
		vals := make([]float64, n)
		for i := range vals {
			// Mix magnitudes so cancellation would be visible if the
			// prefix-sum anchoring were wrong.
			vals[i] = math.Exp(rng.Float64()*8) * rng.Float64()
		}
		for i, v := range vals {
			smp := Sample{T: simtime.Time(i * 300), V: v}
			ref.MustAppend("vol-V1", VolReadIO, smp)
			cut.MustAppend("vol-V1", VolReadIO, smp)
		}
		horizon := simtime.Time(rng.Intn(n) * 300)
		cut.Truncate(horizon)

		// Probe random windows that start at or above the horizon,
		// including degenerate and over-long ones.
		for probe := 0; probe < 30; probe++ {
			start := horizon.Add(simtime.Duration(rng.Intn(n) * 150))
			end := start.Add(simtime.Duration(rng.Intn(n) * 300))
			iv := simtime.NewInterval(start, end)
			want := ref.WindowStats("vol-V1", VolReadIO, iv)
			got := cut.WindowStats("vol-V1", VolReadIO, iv)
			if want.N != got.N || want.Sum != got.Sum || want.Mean != got.Mean || want.Std != got.Std {
				t.Fatalf("trial %d horizon %v window %v: stats diverged after Truncate:\n  ref %+v\n  cut %+v",
					trial, horizon, iv, want, got)
			}
			wm, wn := ref.WindowMean("vol-V1", VolReadIO, iv)
			gm, gn := cut.WindowMean("vol-V1", VolReadIO, iv)
			if wm != gm || wn != gn {
				t.Fatalf("trial %d window %v: WindowMean diverged: ref %.17g/%d cut %.17g/%d",
					trial, iv, wm, wn, gm, gn)
			}
		}

		// Keep appending after truncation and re-check: the carried base
		// sums must anchor future aggregates too.
		for i := n; i < n+100; i++ {
			v := math.Exp(rng.Float64()*8) * rng.Float64()
			smp := Sample{T: simtime.Time(i * 300), V: v}
			ref.MustAppend("vol-V1", VolReadIO, smp)
			cut.MustAppend("vol-V1", VolReadIO, smp)
		}
		iv := simtime.NewInterval(horizon, simtime.Time((n+100)*300))
		want := ref.WindowStats("vol-V1", VolReadIO, iv)
		got := cut.WindowStats("vol-V1", VolReadIO, iv)
		if want.N != got.N || want.Sum != got.Sum || want.Mean != got.Mean || want.Std != got.Std {
			t.Fatalf("trial %d: post-truncation appends diverged:\n  ref %+v\n  cut %+v", trial, want, got)
		}
	}
}

// TestTruncateEarlyOutMatchesFullScan drives two stores through the
// same random appends and truncations: one truncates as shipped, the
// other with its bound knocked down so every call scans every series.
// Drop counts, retained sizes, series contents and window statistics
// must agree after every step. Series appear throughout the run,
// including after truncations and starting below the last horizon,
// and small segments make whole-segment drops frequent.
func TestTruncateEarlyOutMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		fast, full := NewStore(), NewStore()
		size := 2 + rng.Intn(12)
		fast.SetSegmentSize(size)
		full.SetSegmentSize(size)
		var comps []string
		next := map[string]simtime.Time{} // next sample time per series
		var horizon simtime.Time
		earlyOuts := 0
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 2 || len(comps) == 0: // a new series, starting near the horizon
				c := fmt.Sprintf("c%d", len(comps))
				comps = append(comps, c)
				next[c] = horizon + simtime.Time(rng.Intn(7)-3)*300
			case op < 8: // a run of samples on one series
				c := comps[rng.Intn(len(comps))]
				for i := rng.Intn(3 * size); i >= 0; i-- {
					smp := Sample{T: next[c], V: rng.NormFloat64() * 100}
					fast.MustAppend(c, VolReadIO, smp)
					full.MustAppend(c, VolReadIO, smp)
					next[c] += simtime.Time(rng.Intn(2)) * 300
				}
			default: // truncate, sometimes below the previous horizon
				horizon += simtime.Time(rng.Intn(5)-1) * 300
				full.headBound = simtime.Time(math.Inf(-1))
				want := full.Truncate(horizon)
				bound := fast.headBound
				got := fast.Truncate(horizon)
				if got != want {
					t.Fatalf("trial %d step %d: Truncate(%v) dropped %d, full scan %d", trial, step, horizon, got, want)
				}
				if horizon <= bound {
					earlyOuts++
				}
			}
			if fast.Len() != full.Len() || fast.Dropped() != full.Dropped() {
				t.Fatalf("trial %d step %d: len %d/%d dropped %d/%d", trial, step,
					fast.Len(), full.Len(), fast.Dropped(), full.Dropped())
			}
		}
		if earlyOuts == 0 {
			t.Fatalf("trial %d: no truncation took the early out", trial)
		}
		for _, c := range comps {
			if got, want := fast.Series(c, VolReadIO), full.Series(c, VolReadIO); !slices.Equal(got, want) {
				t.Fatalf("trial %d %s: series %v, full scan %v", trial, c, got, want)
			}
			for probe := 0; probe < 10; probe++ {
				start := horizon + simtime.Time(rng.Intn(40)-10)*150
				iv := simtime.NewInterval(start, start+simtime.Time(rng.Intn(40))*300)
				if got, want := fast.WindowStats(c, VolReadIO, iv), full.WindowStats(c, VolReadIO, iv); got != want {
					t.Fatalf("trial %d %s %v: stats %+v, full scan %+v", trial, c, iv, got, want)
				}
			}
		}
	}
}
