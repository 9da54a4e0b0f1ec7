package sanperf_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"diads/internal/metrics"
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/topology"
)

// TestEmitNetworkMetricsFollowsConfigChanges emits FC-port traffic in
// 10-minute chunks from one Model while the configuration changes
// between chunks: a new volume in V1's pool, its LUN mapping to the DB
// server, then removal of the DB server's zone. After every chunk the
// store must equal one filled chunk by chunk from a fresh Model, which
// computes its fabric routes from scratch.
func TestEmitNetworkMetricsFollowsConfigChanges(t *testing.T) {
	tb, err := testbed.NewFigure1(testbed.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tb.Cfg
	const volX topology.ID = "vol-X"
	hour := simtime.NewInterval(0, simtime.Time(simtime.Hour))
	loads := []sanperf.Load{
		{Volume: testbed.VolV1, Iv: hour, ReadIOPS: 120, WriteIOPS: 30, SeqFrac: 0.3, Source: "q"},
		{Volume: testbed.VolV2, Iv: hour, ReadIOPS: 80, WriteIOPS: 5, SeqFrac: 0.8, Source: "q"},
		{Volume: volX, Iv: hour, ReadIOPS: 40, WriteIOPS: 60, SeqFrac: 0.1, Source: "wl-x"},
	}
	model := func() *sanperf.Model {
		m := sanperf.NewModel(cfg, sanperf.DefaultDiskParams())
		for _, l := range loads {
			m.AddLoad(l)
		}
		return m
	}
	cached := model()
	got, want := metrics.NewStore(), metrics.NewStore()
	spGot, spWant := metrics.NewSampler(0.1, 9), metrics.NewSampler(0.1, 9)
	steps := []struct {
		name   string
		mutate func(t *testing.T)
	}{
		{"initial", func(*testing.T) {}},
		{"AddVolume", func(t *testing.T) {
			if err := cfg.AddVolume(volX, testbed.PoolP1, "X", 10); err != nil {
				t.Fatal(err)
			}
		}},
		{"MapLUN", func(t *testing.T) {
			if err := cfg.MapLUN(volX, testbed.ServerDB); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemoveZone", func(t *testing.T) {
			if !cfg.RemoveZone("z-db") {
				t.Fatal("no zone z-db")
			}
		}},
	}
	for i, st := range steps {
		st.mutate(t)
		chunk := simtime.NewInterval(simtime.Time(i)*600, simtime.Time(i+1)*600)
		cached.EmitNetworkMetrics(got, spGot, chunk, testbed.ServerDB)
		model().EmitNetworkMetrics(want, spWant, chunk, testbed.ServerDB)
		if !slices.Equal(got.Keys(), want.Keys()) {
			t.Fatalf("after %s: series %v, fresh model %v", st.name, got.Keys(), want.Keys())
		}
		for _, k := range want.Keys() {
			g, w := got.Series(k.Component, k.Metric), want.Series(k.Component, k.Metric)
			if !slices.EqualFunc(g, w, func(a, b metrics.Sample) bool {
				return a.T == b.T && math.Float64bits(a.V) == math.Float64bits(b.V)
			}) {
				t.Fatalf("after %s: %s %v, fresh model %v", st.name, k, g, w)
			}
		}
	}
	// The zone removal cut the DB server off: the last chunk added no
	// port samples, so the routes really changed under the cache.
	if n := len(want.Series("ss-1-p0", metrics.NetBytesTransmitted)); n != 6 {
		t.Fatalf("ss-1-p0 holds %d traffic samples, want 6 (three chunks of two)", n)
	}
}

// TestModelSnapshotsConcurrentUse has goroutines share one Model: each
// emits network and SAN metrics into its own store and queries pool and
// disk utilization, so the structure and route snapshots are built and
// read concurrently. Run under -race; every goroutine must produce the
// store a lone emitter does.
func TestModelSnapshotsConcurrentUse(t *testing.T) {
	tb, err := testbed.NewFigure1(testbed.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	m := tb.SAN
	m.AddLoad(sanperf.Load{Volume: testbed.VolV1, Iv: simtime.NewInterval(0, 3600), ReadIOPS: 90, WriteIOPS: 20, Source: "q"})
	iv := simtime.NewInterval(0, 1800)
	emit := func() *metrics.Store {
		store, sp := metrics.NewStore(), metrics.NewSampler(0.1, 3)
		m.EmitMetrics(store, sp, iv)
		m.EmitNetworkMetrics(store, sp, iv, testbed.ServerDB)
		m.PoolUtilization(testbed.PoolP1, 100)
		m.DiskUtilization("disk-1", 100)
		return store
	}
	const n = 4
	stores := make([]*metrics.Store, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stores[i] = emit()
		}()
	}
	wg.Wait()
	want := emit()
	for i, got := range stores {
		for _, k := range want.Keys() {
			if !slices.Equal(got.Series(k.Component, k.Metric), want.Series(k.Component, k.Metric)) {
				t.Fatalf("goroutine %d: %s differs from a lone emitter's", i, k)
			}
		}
	}
}
