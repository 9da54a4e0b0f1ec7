package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"diads/internal/simtime"
)

// stepFn is a piecewise-constant function: vals[i] on [bps[i], bps[i+1]),
// vals[0] before bps[0] and vals[len(bps)] from the last breakpoint on.
type stepFn struct {
	bps  []simtime.Time
	vals []float64
}

// at returns the value at t and the next breakpoint after t: the honest
// until of the step contract.
func (f stepFn) at(t simtime.Time) (float64, simtime.Time) {
	i := sort.Search(len(f.bps), func(i int) bool { return f.bps[i] > t })
	if i == len(f.bps) {
		return f.vals[i], simtime.Time(math.Inf(1))
	}
	return f.vals[i], f.bps[i]
}

// randomStepFn draws breakpoints over [0, horizon): off the sub-step grid,
// exactly on integration midpoints, and on sub-step boundaries.
func randomStepFn(rng *rand.Rand, horizon simtime.Time, sub simtime.Duration) stepFn {
	var bps []simtime.Time
	for i := rng.Intn(40); i >= 0; i-- {
		switch rng.Intn(3) {
		case 0:
			bps = append(bps, simtime.Time(rng.Float64()*float64(horizon)))
		case 1:
			k := rng.Intn(int(float64(horizon) / float64(sub)))
			bps = append(bps, simtime.Time(float64(k)*float64(sub)+float64(sub)/2))
		default:
			bps = append(bps, simtime.Time(float64(rng.Intn(int(float64(horizon)/float64(sub))))*float64(sub)))
		}
	}
	sort.Slice(bps, func(i, j int) bool { return bps[i] < bps[j] })
	vals := make([]float64, len(bps)+1)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	return stepFn{bps: bps, vals: vals}
}

// referenceMeans is the pointwise midpoint integrator: it evaluates fn at
// every sub-step midpoint of every monitoring interval of iv, ignoring
// until.
func referenceMeans(fn TrueValueFunc, iv simtime.Interval, step, sub simtime.Duration) []Sample {
	var out []Sample
	for start := iv.Start; start < iv.End; start = start.Add(step) {
		end := min(start.Add(step), iv.End)
		var sum float64
		var n int
		for t := start; t < end; t = t.Add(sub) {
			mid := t.Add(sub / 2)
			if mid >= end {
				mid = t.Add(simtime.Duration(float64(end.Sub(t)) / 2))
			}
			v, _ := fn(mid)
			sum += v
			n++
		}
		out = append(out, Sample{T: end, V: sum / float64(n)})
	}
	return out
}

// TestRecordStepContract pins the step-aware integrator to the pointwise
// one bit for bit: with an honest until, reusing a value until its
// change point must not alter a single sum. Trailing partial intervals
// and sub-steps are covered by horizons off the monitoring grid.
func TestRecordStepContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sp := NewSampler(0, 0)
	for trial := 0; trial < 500; trial++ {
		horizon := simtime.Time(float64(rng.Intn(12)+1)*float64(sp.Interval) + float64(rng.Intn(3))*float64(sp.SubStep)*rng.Float64())
		f := randomStepFn(rng, horizon, sp.SubStep)
		iv := simtime.NewInterval(0, horizon)
		want := referenceMeans(f.at, iv, sp.Interval, sp.SubStep)

		for _, tc := range []struct {
			name string
			fn   TrueValueFunc
		}{
			{"honest", f.at},
			{"re-evaluate", func(t simtime.Time) (float64, simtime.Time) { v, _ := f.at(t); return v, t }},
		} {
			s := NewStore()
			sp.Record(s, "c", VolReadTime, iv, tc.fn)
			got := s.Series("c", VolReadTime)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d samples, want %d", trial, tc.name, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i].V) != math.Float64bits(want[i].V) || got[i].T != want[i].T {
					t.Fatalf("trial %d %s sample %d: got %+v, want %+v (breakpoints %v)",
						trial, tc.name, i, got[i], want[i], f.bps)
				}
			}
		}
	}
}

// TestRecordEvaluatesOncePerChangePoint checks the point of the step
// contract: a function with k change points inside the horizon is
// evaluated k+1 times, not once per sub-step.
func TestRecordEvaluatesOncePerChangePoint(t *testing.T) {
	f := stepFn{
		bps:  []simtime.Time{100, 1000, 1000.5, 2000},
		vals: []float64{1, 2, 3, 4, 5},
	}
	calls := 0
	sp := NewSampler(0, 0)
	sp.Record(NewStore(), "c", VolReadTime, simtime.NewInterval(0, 3600), func(t simtime.Time) (float64, simtime.Time) {
		calls++
		return f.at(t)
	})
	// [1000, 1000.5) holds no sub-step midpoint, so value 3 is never read.
	if calls != 4 {
		t.Fatalf("fn evaluated %d times, want 4 (one per piece holding a midpoint)", calls)
	}
}
