package sanperf

import (
	"math"
	"math/rand"
	"testing"

	"diads/internal/simtime"
	"diads/internal/topology"
)

// probesIn returns instants spread over [t, until): t itself, the last
// float before until, and random points between, all capped at horizon
// when until is unbounded.
func probesIn(rng *rand.Rand, t, until, horizon simtime.Time) []simtime.Time {
	end := min(until, horizon)
	out := []simtime.Time{t}
	if end > t {
		out = append(out, simtime.Time(math.Nextafter(float64(end), math.Inf(-1))))
		for i := 0; i < 8; i++ {
			out = append(out, t+simtime.Time(rng.Float64())*(end-t))
		}
	}
	return out
}

// refAt sums the segments covering t, in insertion order.
func refAt(segs []Segment, t simtime.Time) float64 {
	var sum float64
	for _, s := range segs {
		if s.Iv.Contains(t) {
			sum += s.V
		}
	}
	return sum
}

// TestTimelineAtUntilProperty checks the one-pass scan over random,
// overlapping and zero-length segments: its value is the pointwise sum
// bit for bit everywhere in [t, until), and until is a real segment
// boundary (or +Inf when no boundary follows t).
func TestTimelineAtUntilProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const horizon = 1000
	for trial := 0; trial < 300; trial++ {
		tl := NewTimeline()
		bounds := map[simtime.Time]bool{}
		var boundList []simtime.Time
		for i := rng.Intn(12); i >= 0; i-- {
			start := simtime.Time(rng.Intn(horizon))
			if rng.Intn(2) == 0 {
				start += simtime.Time(rng.Float64())
			}
			end := start
			if rng.Intn(5) > 0 { // one in five is zero-length
				end += simtime.Time(rng.Intn(300))
			}
			tl.Add("k", simtime.NewInterval(start, end), rng.NormFloat64(), "src")
			if end > start {
				bounds[start], bounds[end] = true, true
				boundList = append(boundList, start, end)
			}
		}
		segs := tl.Segments("k")
		for q := 0; q < 20; q++ {
			at := simtime.Time(rng.Float64() * (horizon + 300))
			if q%4 == 0 && len(boundList) > 0 { // probe exactly on a boundary too
				at = boundList[rng.Intn(len(boundList))]
			}
			v, until := tl.AtUntil("k", at)
			if until <= at {
				t.Fatalf("trial %d: until %v not after t %v", trial, until, at)
			}
			if !math.IsInf(float64(until), 1) && !bounds[until] {
				t.Fatalf("trial %d: until %v is not a segment boundary", trial, until)
			}
			if math.IsInf(float64(until), 1) {
				for b := range bounds {
					if b > at {
						t.Fatalf("trial %d: until +Inf at %v but boundary %v follows", trial, at, b)
					}
				}
			}
			for _, p := range probesIn(rng, at, until, horizon+300) {
				if got := refAt(segs, p); math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("trial %d: value %v at %v, but %v at %v < until %v", trial, v, at, got, p, until)
				}
			}
		}
	}
}

// TestPoolLoadHoldsUntil checks the pool-level step contract the
// emission relies on: under random loads, disk load and outages, the
// pool state and every disk's utilization computed at t are reproduced
// exactly anywhere in [t, until).
func TestPoolLoadHoldsUntil(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := buildSAN(t)
	const horizon = 4000
	for trial := 0; trial < 40; trial++ {
		m := NewModel(cfg, DefaultDiskParams())
		span := func() simtime.Interval {
			start := simtime.Time(rng.Float64() * horizon)
			return simtime.NewInterval(start, start+simtime.Time(rng.Float64()*800))
		}
		for _, vol := range cfg.All(topology.KindVolume) {
			for i := rng.Intn(6); i >= 0; i-- {
				m.AddLoad(Load{Volume: vol, Iv: span(), ReadIOPS: rng.Float64() * 200,
					WriteIOPS: rng.Float64() * 80, SeqFrac: rng.Float64()})
			}
		}
		for _, disk := range cfg.All(topology.KindDisk) {
			if rng.Intn(3) == 0 {
				m.AddDiskUtilization(disk, span(), rng.Float64()*0.3, "rebuild")
			}
			if rng.Intn(4) == 0 {
				m.FailDisk(disk, span(), "fail")
			}
		}
		for _, pool := range cfg.All(topology.KindPool) {
			disks := cfg.ChildrenOfKind(pool, topology.KindDisk)
			for q := 0; q < 25; q++ {
				at := simtime.Time(rng.Float64() * horizon)
				pl := m.poolLoad(pool, at)
				for _, p := range probesIn(rng, at, pl.until, horizon+800) {
					got := m.poolLoad(pool, p)
					if got.util != pl.util || got.demand != pl.demand || got.allFailed != pl.allFailed {
						t.Fatalf("trial %d %s: state at %v differs at %v < until %v", trial, pool, at, p, pl.until)
					}
					for _, d := range disks {
						if a, b := m.diskUtilization(d, at, pl), m.DiskUtilization(d, p); a != b {
							t.Fatalf("trial %d %s: utilization %v at %v, %v at %v < until %v", trial, d, a, at, b, p, pl.until)
						}
					}
				}
			}
		}
	}
}

// randomGrid returns ascending, disjoint windows in the shape a sampler
// emits — consecutive steps from a random start, the last possibly cut
// short — with zero-length windows and gaps mixed in.
func randomGrid(rng *rand.Rand) []simtime.Interval {
	step := simtime.Duration(1 + rng.Intn(60))
	t := simtime.Time(rng.Intn(200) - 20)
	var out []simtime.Interval
	for i := rng.Intn(12); i >= 0; i-- {
		switch rng.Intn(6) {
		case 0: // empty window
			out = append(out, simtime.NewInterval(t, t))
		case 1: // gap before the next window
			t = t.Add(step * simtime.Duration(rng.Intn(3)))
		}
		end := t.Add(step)
		if i == 0 && rng.Intn(2) == 0 {
			end = t.Add(simtime.Duration(rng.Float64()) * step)
		}
		out = append(out, simtime.NewInterval(t, end))
		t = end
	}
	return out
}

// TestTimelineMeansOverProperty checks that MeansOver equals MeanOver
// per window, bit for bit, on random timelines: negative and mixed
// values, segments added out of time order, segments spanning many
// windows or none, empty windows, and reads after Truncate.
func TestTimelineMeansOverProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(trial int, tl *Timeline, windows []simtime.Interval, stage string) {
		t.Helper()
		got := make([]float64, len(windows))
		tl.MeansOver("k", windows, got)
		for i, w := range windows {
			if want := tl.MeanOver("k", w); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d %s: window %v: MeansOver %v, MeanOver %v", trial, stage, w, got[i], want)
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		tl := NewTimeline()
		for i := rng.Intn(30); i >= 0; i-- {
			start := simtime.Time(rng.Float64() * 600)
			length := simtime.Duration(rng.Float64() * 40)
			if rng.Intn(4) == 0 { // spans many windows
				length *= 20
			}
			if rng.Intn(2) == 0 { // on whole seconds, where window edges lie
				start, length = simtime.Time(math.Round(float64(start))), simtime.Duration(math.Round(float64(length)))
			}
			v := rng.NormFloat64() * math.Exp(rng.Float64()*6)
			tl.Add("k", simtime.NewInterval(start, start.Add(length)), v, "src")
		}
		windows := randomGrid(rng)
		check(trial, tl, windows, "")
		check(trial, NewTimeline(), windows, "no segments")

		horizon := simtime.Time(rng.Float64() * 400)
		before := make([]float64, len(windows))
		tl.MeansOver("k", windows, before)
		tl.Truncate(horizon)
		check(trial, tl, windows, "after Truncate")
		after := make([]float64, len(windows))
		tl.MeansOver("k", windows, after)
		for i, w := range windows {
			if w.Start >= horizon && math.Float64bits(after[i]) != math.Float64bits(before[i]) {
				t.Fatalf("trial %d: window %v above horizon %v: %v after Truncate, %v before", trial, w, horizon, after[i], before[i])
			}
		}
	}
}
