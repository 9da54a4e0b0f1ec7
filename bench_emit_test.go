// Per-layer benchmarks of the metric emission path: the sampler's
// integrator, the SAN model's emission, and the store's component
// index. CI persists them as BENCH_emit.json, with allocs/op.
package diads_test

import (
	"math"
	"testing"

	"diads/internal/experiments"
	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/testbed"
)

// benchTestbed simulates one faulted online instance, so benchmarks
// replay emission over a SAN model holding a realistic day of loads.
func benchTestbed(b *testing.B) *experiments.OnlineEnv {
	b.Helper()
	env, err := experiments.BuildOnline(experiments.OnlineSpec{Seed: benchSeed, Runs: 12})
	if err != nil {
		b.Fatal(err)
	}
	env.Testbed.Engine.OnRunComplete = nil
	if err := env.Testbed.Simulate(); err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkMicro_SamplerRecord times Sampler.Record over one simulated
// day of a piecewise-constant series that changes every 4 minutes, with
// measurement noise on: 288 samples per op.
func BenchmarkMicro_SamplerRecord(b *testing.B) {
	const change = 4 * simtime.Minute
	fn := func(t simtime.Time) (float64, simtime.Time) {
		k := math.Floor(float64(t) / float64(change))
		return 1 + math.Mod(k, 7), simtime.Time((k + 1) * float64(change))
	}
	day := simtime.NewInterval(0, simtime.Time(24*simtime.Hour))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := metrics.NewSampler(0.1, int64(i))
		sp.Record(metrics.NewStore(), "vol-V1", metrics.VolReadTime, day, fn)
	}
}

// BenchmarkMicro_EmitMetrics times sanperf.Model.EmitMetrics over one
// simulated instance-hour: the hour after the SAN fault, on the
// monitoring grid, into a fresh store.
func BenchmarkMicro_EmitMetrics(b *testing.B) {
	env := benchTestbed(b)
	grid := float64(metrics.DefaultMonitorInterval)
	start := simtime.Time(math.Floor(float64(env.Onset)/grid) * grid)
	hour := simtime.NewInterval(start, start.Add(simtime.Hour))
	tb := env.Testbed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := metrics.NewSampler(tb.Conf.MonitorNoise, tb.Conf.Seed)
		tb.SAN.EmitMetrics(metrics.NewStore(), sp, hour)
	}
}

// metricsForSink keeps the compiler from dropping MetricsFor calls.
var metricsForSink []metrics.Metric

// BenchmarkMicro_StoreMetricsFor times one Store.MetricsFor lookup on a
// simulated instance's store, cycling through its components — the call
// DA and APG make per component.
func BenchmarkMicro_StoreMetricsFor(b *testing.B) {
	store := benchTestbed(b).Testbed.Store
	comps := store.Components()
	if len(comps) == 0 || len(store.MetricsFor(string(testbed.VolV1))) == 0 {
		b.Fatal("simulated store holds no series")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metricsForSink = store.MetricsFor(comps[i%len(comps)])
	}
}
