package main

import (
	"fmt"
	"sort"
	"time"

	"diads/internal/exec"
	"diads/internal/experiments"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/simtime"
	"diads/internal/testbed"
)

// The probes time public functions of layers that have no hook inside a
// workload's run, on the workload's own generated data. They run only in
// traced runs, after the repetitions.

// probeReps is how many times the simulation probe repeats; it reports
// the median.
const probeReps = 3

// simulateProbe times Testbed.Simulate on a freshly built instance, then
// replays the SAN model's metric emission over the instance's horizon
// into a fresh store. Both are reported per simulated instance-hour. It
// returns the last simulated testbed for the other probes.
func simulateProbe(spec experiments.OnlineSpec, out map[string]float64) (*testbed.Testbed, error) {
	var sim, emit dist
	var tb *testbed.Testbed
	for i := 0; i < probeReps; i++ {
		env, err := experiments.BuildOnline(spec)
		if err != nil {
			return nil, err
		}
		tb = env.Testbed
		tb.Engine.OnRunComplete = nil
		t0 := time.Now()
		if err := tb.Simulate(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		hours := tb.Horizon.Length().Seconds() / simtime.Hour.Seconds()
		sim.add(ms(d) / hours)

		store := metrics.NewStore()
		sp := metrics.NewSampler(tb.Conf.MonitorNoise, tb.Conf.Seed)
		t0 = time.Now()
		tb.SAN.EmitMetrics(store, sp, tb.Horizon)
		tb.SAN.EmitNetworkMetrics(store, sp, tb.Horizon, testbed.ServerDB)
		emit.add(ms(time.Since(t0)) / hours)
	}
	out["testbed.simulate_ms_per_inst_hour"] = sim.median()
	out["sanperf.emit_ms_per_inst_hour"] = emit.median()
	return tb, nil
}

// storeSource is one store a workload reads or writes, with the runs
// whose evidence windows diagnoses read from it.
type storeSource struct {
	store *metrics.Store
	runs  []*exec.RunRecord
}

// storeProbe replays every sample of the sources into fresh stores
// (append), lists each component's metrics (MetricsFor), reads every
// series over every run's evidence window (WindowStats), and truncates
// the replayed stores in steps across their span (Truncate).
func storeProbe(srcs []storeSource, out map[string]float64) error {
	var appendT, forT, winT, truncT time.Duration
	var appends, fors, wins, truncs int
	for _, src := range srcs {
		dst := metrics.NewStore()
		keys := src.store.Keys()
		var lo, hi simtime.Time
		seen := false
		for _, k := range keys {
			series := src.store.Series(k.Component, k.Metric)
			t0 := time.Now()
			for _, s := range series {
				if err := dst.Append(k.Component, k.Metric, s); err != nil {
					return fmt.Errorf("store probe: %w", err)
				}
			}
			appendT += time.Since(t0)
			appends += len(series)
			if len(series) > 0 {
				if !seen || series[0].T < lo {
					lo = series[0].T
				}
				hi = max(hi, series[len(series)-1].T)
				seen = true
			}
		}

		comps := dst.Components()
		t0 := time.Now()
		for _, c := range comps {
			_ = dst.MetricsFor(c)
		}
		forT += time.Since(t0)
		fors += len(comps)

		t0 = time.Now()
		for _, r := range src.runs {
			rw := metrics.ReadWindow(simtime.NewInterval(r.Start, r.Stop))
			for _, k := range keys {
				_ = dst.WindowStats(k.Component, k.Metric, rw)
			}
		}
		winT += time.Since(t0)
		wins += len(src.runs) * len(keys)

		const steps = 16
		for i := 1; i <= steps; i++ {
			h := lo + (hi-lo)*simtime.Time(i)/steps
			t0 := time.Now()
			dst.Truncate(h)
			truncT += time.Since(t0)
			truncs++
		}
	}
	if appends == 0 || fors == 0 || wins == 0 {
		return fmt.Errorf("store probe: empty sources")
	}
	out["metrics.append_ns"] = float64(appendT.Nanoseconds()) / float64(appends)
	out["metrics.metrics_for_us"] = us(forT) / float64(fors)
	out["metrics.window_stats_us"] = us(winT) / float64(wins)
	out["metrics.truncate_us"] = us(truncT) / float64(truncs)
	return nil
}

// monitorProbe replays recorded run streams, in completion order,
// through a fresh monitor whose detections feed a Gate, and releases the
// gate at every run's completion time, the way the fleet coordinator
// advances its watermark. It reports the mean Gate.Release time, and
// the Observe time and counts the workload did not measure live.
func monitorProbe(streams [][]*exec.RunRecord, out map[string]float64) {
	var obsT, relT time.Duration
	var observed, releases, events int
	for _, runs := range streams {
		runs = append([]*exec.RunRecord(nil), runs...)
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].Stop < runs[j].Stop })
		mon := monitor.New(monitor.Config{})
		gate := &monitor.Gate{}
		mon.SetSink(gate.Add)
		for _, r := range runs {
			t0 := time.Now()
			mon.Observe(r)
			obsT += time.Since(t0)
			observed++
			t0 = time.Now()
			gate.Release(r.Stop)
			relT += time.Since(t0)
			releases++
		}
		events += int(mon.Stats().Events)
	}
	if releases == 0 {
		return
	}
	out["monitor.gate_release_us"] = us(relT) / float64(releases)
	for k, v := range map[string]float64{
		"monitor.observe_us":    us(obsT) / float64(observed),
		"monitor.runs_observed": float64(observed),
		"monitor.events":        float64(events),
	} {
		if _, live := out[k]; !live {
			out[k] = v
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
