package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"diads/internal/telemetry"
)

func TestQuantileNearestRank(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.25, 25},
	} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := d.median(); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := d.mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	var empty dist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
}

func TestPercentileSupport(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{2544, 0.99, 25, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.99, 0, false},
	} {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		d := dist{v: make([]float64, c.n)}
		if got := d.supported(c.q); got != c.ok {
			t.Errorf("supported n=%d q=%v = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
}

// fakeClock advances only when slept or when a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	start := c.now
	due := evenSchedule(4, 10*time.Millisecond)
	if due[3] != 30*time.Millisecond {
		t.Fatalf("evenSchedule offsets = %v", due)
	}
	// Request 1 stalls for 35ms; the others take 2ms.
	cost := []time.Duration{2, 35, 2, 2}
	var sentAt []time.Duration
	got := openLoop(c, start, due, func(i int) {
		sentAt = append(sentAt, c.now.Sub(start))
		c.now = c.now.Add(cost[i] * time.Millisecond)
	})
	// Sends 0 and 1 go on time; 2 (due 20) and 3 (due 30) wait for the
	// stall to end at 45 and run back to back.
	wantSent := []time.Duration{0, 10, 45, 47}
	wantLate := []time.Duration{0, 0, 25, 17}
	wantLat := []time.Duration{2, 35, 27, 19}
	for i := range due {
		if sentAt[i] != wantSent[i]*time.Millisecond {
			t.Errorf("send %d at %v, want %v", i, sentAt[i], wantSent[i]*time.Millisecond)
		}
		if got[i].late != wantLate[i]*time.Millisecond {
			t.Errorf("send %d late %v, want %v", i, got[i].late, wantLate[i]*time.Millisecond)
		}
		if got[i].latency != wantLat[i]*time.Millisecond {
			t.Errorf("send %d latency %v, want %v (timed from due)", i, got[i].latency, wantLat[i]*time.Millisecond)
		}
	}
}

func TestReportDigest(t *testing.T) {
	a := reportDigest("fleet report", "second")
	if a != reportDigest("fleet report", "second") {
		t.Fatal("digest is not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", a)
	}
	for _, other := range [][]string{
		{"fleet report", "secone"},
		{"fleet reports", "econd"}, // same bytes, moved across parts
		{"fleet report"},
	} {
		if reportDigest(other...) == a {
			t.Errorf("digest of %q collides", other)
		}
	}
	var c digestCheck
	if !c.observe(a) || !c.observe(a) {
		t.Fatal("matching digests flagged")
	}
	if c.observe(reportDigest("changed")) || !c.observe(a) {
		t.Fatal("a changed digest must fail and leave the pinned one in place")
	}
}

func TestSnapshotDiff(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("diads_x_total", "x", telemetry.Labels{"route": "a", "code": "200"})
	other := reg.Counter("diads_x_total", "x", telemetry.Labels{"route": "b", "code": "200"})
	h := reg.Histogram("diads_y_seconds", "y", telemetry.Labels{"module": "da"}, nil)
	h2 := reg.Histogram("diads_y_seconds", "y", telemetry.Labels{"module": "cr"}, nil)
	ctr.Add(5)
	h.Observe(1)
	before := indexSnapshot(reg.Snapshot())

	ctr.Add(3)
	other.Add(4)
	h.Observe(0.25)
	h.Observe(0.5)
	h2.Observe(2)
	// A series born between the snapshots counts from zero.
	reg.Counter("diads_x_total", "x", telemetry.Labels{"route": "c", "code": "429"}).Add(2)
	d := snapDiff{before, indexSnapshot(reg.Snapshot())}

	if got := d.counter("diads_x_total", telemetry.Labels{"route": "a"}); got != 3 {
		t.Errorf("route a grew %v, want 3", got)
	}
	if got := d.counter("diads_x_total", nil); got != 9 {
		t.Errorf("family grew %v, want 9", got)
	}
	if got := d.counter("diads_x_total", telemetry.Labels{"code": "429"}); got != 2 {
		t.Errorf("code 429 grew %v, want 2", got)
	}
	if got := d.counter("diads_x", nil); got != 0 {
		t.Errorf("prefix of a family name matched: %v", got)
	}
	if n, s := d.hist("diads_y_seconds", telemetry.Labels{"module": "da"}); n != 2 || s != 0.75 {
		t.Errorf("da histogram grew n=%d sum=%v, want 2 and 0.75", n, s)
	}
	if n, s := d.hist("diads_y_seconds", nil); n != 3 || s != 2.75 {
		t.Errorf("family histogram grew n=%d sum=%v, want 3 and 2.75", n, s)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists and
// the metrics this program reports identical.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

func TestFillRejectsUnknownAndNonFinite(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	out := map[string]value{}
	if err := fill(out, defs, map[string]float64{"a_ms": 1.5}); err != nil {
		t.Fatal(err)
	}
	if out["a_ms"] != (value{1.5, "ms"}) || out["b"] != (value{0, "count"}) {
		t.Fatalf("fill = %v", out)
	}
	if err := fill(out, defs, map[string]float64{"c": 1}); err == nil {
		t.Error("unknown metric accepted")
	}
	if err := fill(out, defs, map[string]float64{"a_ms": math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if err := fill(out, defs, map[string]float64{"a_ms": math.Inf(1)}); err == nil {
		t.Error("Inf accepted")
	}
}
