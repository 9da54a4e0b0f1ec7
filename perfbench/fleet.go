package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"diads/internal/exec"
	"diads/internal/experiments"
	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// The fleet workload is one batch run of the ROADMAP's 100-instance
// shape: 75 instances degraded by the misconfigured shared pool, learning
// and retention on, 2 shards, 2 concurrent streams, one diagnosis worker
// per shard. A resident cap of 8 makes hibernation fire whether the cap
// is read per shard (16 resident of 100) or fleet-wide (8 of 100).
// Simulation and metric emission dominate its CPU; it is the only
// workload that runs the coordinator, learner, truncation and
// hibernation paths.
const (
	fleetInstances = 100
	fleetDegraded  = 75
	fleetRuns      = 12
	fleetShards    = 2
	fleetStreams   = 2
	fleetWorkers   = 1
	fleetResident  = 8

	// fleetSeedStride and fleetStagger are experiments.RunFleetSpec's
	// per-instance seed stride and schedule offset; set-up checks that
	// the benchmark's own assembly reproduces RunFleetSpec's report.
	fleetSeedStride = 1_000_003
	fleetStagger    = 3 * simtime.Minute
)

func fleetSpec(seed int64) experiments.FleetSpec {
	return experiments.FleetSpec{
		Seed: seed, Instances: fleetInstances, Degraded: fleetDegraded, Runs: fleetRuns,
		MaxStreams: fleetStreams, Workers: fleetWorkers, Shards: fleetShards,
		Retention: true, ResidentCap: fleetResident,
	}
}

// fleetSharedSubjects are the shared pool's components, as the
// experiments fleet scenario declares them.
func fleetSharedSubjects() []string {
	out := []string{string(testbed.PoolP1), string(testbed.VolV1), string(testbed.VolV3), "vol-Vp"}
	for i := 1; i <= 4; i++ {
		out = append(out, fmt.Sprintf("disk-%d", i))
	}
	return out
}

type fleetWorkload struct {
	seed int64
	ref  string // digest of experiments.RunFleetSpec's report

	// Traced-repetition accumulators.
	reps                           int
	observeNs, observed            atomic.Int64 // written by concurrently simulating instances
	events                         float64
	appended, truncated            float64
	svc                            serviceTally
	waveS, learnS, waves, released float64
}

func (w *fleetWorkload) setup(seed int64) ([]time.Duration, error) {
	w.seed = seed
	// The reference run is RunFleetSpec itself; it doubles as the
	// process warm-up, since a first fleet run is about 2x slower.
	rep, _, err := experiments.RunFleetSpec(fleetSpec(seed))
	if err != nil {
		return nil, err
	}
	if msg := checkFleet(rep); msg != "" {
		return nil, errors.New(msg)
	}
	w.ref = reportDigest(rep.Render())
	return nil, nil
}

// checkFleet returns why the report is wrong, or "" when the top fleet
// incident is the shared pool's misconfiguration on V1 spanning exactly
// the degraded instances.
func checkFleet(rep *fleet.Report) string {
	g := rep.SharedGroup()
	switch {
	case g == nil || len(rep.Groups) == 0 || &rep.Groups[0] != g:
		return "top fleet incident is not the shared-pool group"
	case g.Kind != symptoms.CauseSANMisconfig || g.Subject != string(testbed.VolV1):
		return fmt.Sprintf("top fleet incident is %s(%s)", g.Kind, g.Subject)
	case len(g.Parts) != fleetDegraded:
		return fmt.Sprintf("shared group spans %d instances, want %d", len(g.Parts), fleetDegraded)
	}
	for _, p := range g.Parts {
		var i int
		if _, err := fmt.Sscanf(p.Instance, "inst-%d", &i); err != nil || i >= fleetDegraded {
			return fmt.Sprintf("shared group includes healthy instance %s", p.Instance)
		}
	}
	return ""
}

func (w *fleetWorkload) rep(traced bool) (*repResult, error) {
	t0 := time.Now()
	spec := fleetSpec(w.seed)
	insts := make([]fleet.Instance, 0, spec.Instances)
	for i := 0; i < spec.Instances; i++ {
		env, err := experiments.BuildOnline(experiments.OnlineSpec{
			Seed:    spec.Seed + int64(i)*fleetSeedStride,
			Runs:    spec.Runs,
			Offset:  simtime.Duration(i) * fleetStagger,
			NoFault: i >= spec.Degraded,
		})
		if err != nil {
			return nil, err
		}
		if traced {
			observe := env.Testbed.Engine.OnRunComplete
			env.Testbed.Engine.OnRunComplete = func(r *exec.RunRecord) {
				s := time.Now()
				observe(r)
				w.observeNs.Add(int64(time.Since(s)))
				w.observed.Add(1)
			}
		}
		insts = append(insts, fleet.Instance{
			ID: fmt.Sprintf("inst-%d", i), Testbed: env.Testbed, Monitor: env.Monitor,
			Shared: i < spec.Degraded,
		})
	}
	lat := &latencyLog{}
	fl, err := fleet.New(fleet.Config{
		SymDB:          symptoms.Builtin(),
		SharedSubjects: fleetSharedSubjects(),
		MaxStreams:     spec.MaxStreams,
		Shards:         spec.Shards,
		Service:        service.Config{Workers: spec.Workers},
		SelfObserver:   lat,
		Retention:      spec.Retention,
		ResidentCap:    spec.ResidentCap,
	}, insts)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	var before snapshot
	var trunc0 int64
	if traced {
		before, trunc0 = takeSnapshot(), metrics.TruncatedTotal()
	}
	m := startMeter()
	rep, err := fl.Run(context.Background())
	ph := m.end()
	if err != nil {
		return nil, err
	}

	// The user-facing latency of a batch run is when each verdict
	// becomes available: the time from the run's start to each
	// diagnosis's completion. (Each diagnosis's own wall time contends
	// with the simulating streams for the two cores, and its run-to-run
	// spread exceeds what a regression bound can hold; it is reported
	// per layer as service.diagnosis_ms.)
	r := &repResult{setup: setup, phase: ph, lat: lat.since(m.start), digest: reportDigest(rep.Render())}
	st := rep.Stats
	// Every submitted diagnosis plus the fleet verdict is an operation.
	r.attempted = int(st.Submitted) + 1
	r.failed = int(st.Failed + st.Rejected)
	if msg := checkFleet(rep); msg != "" || r.digest != w.ref {
		r.failed++
		r.wrong++
	}
	if traced {
		w.traced(snapDiff{before, takeSnapshot()}, metrics.TruncatedTotal()-trunc0, insts, rep, lat)
	}
	return r, nil
}

// traced folds one traced repetition into the per-layer accumulators.
func (w *fleetWorkload) traced(d snapDiff, truncated int64, insts []fleet.Instance, rep *fleet.Report, lat *latencyLog) {
	w.reps++
	for _, inst := range insts {
		w.appended += float64(inst.Testbed.Store.Len() + inst.Testbed.Store.Dropped())
		w.events += float64(inst.Monitor.Stats().Events)
	}
	w.truncated += float64(truncated)
	w.svc.add(rep.Stats, d, lat.take())
	_, ws := d.hist("diads_fleet_wave_seconds", nil)
	_, ls := d.hist("diads_fleet_learn_step_seconds", nil)
	w.waveS += ws
	w.learnS += ls
	w.waves += d.counter("diads_fleet_waves_total", nil)
	w.released += d.counter("diads_fleet_events_released_total", nil)
}

func (w *fleetWorkload) layers(wall time.Duration) (map[string]float64, error) {
	if w.reps == 0 {
		return nil, errors.New("no traced repetitions")
	}
	reps := float64(w.reps)
	out := map[string]float64{
		"metrics.samples_appended":  w.appended / reps,
		"metrics.samples_truncated": w.truncated / reps,
		"monitor.observe_us":        us(time.Duration(w.observeNs.Load())) / float64(w.observed.Load()),
		"monitor.runs_observed":     float64(w.observed.Load()) / reps,
		"monitor.events":            w.events / reps,
		"fleet.wave_s":              w.waveS / reps,
		"fleet.learn_s":             w.learnS / reps,
		"fleet.waves":               w.waves / reps,
		"fleet.events_released":     w.released / reps,
		"fleet.coordinator_share":   (w.waveS + w.learnS) / reps / wall.Seconds(),
	}
	w.svc.report(out, reps)

	tb, err := simulateProbe(experiments.OnlineSpec{Seed: w.seed, Runs: fleetRuns}, out)
	if err != nil {
		return nil, err
	}
	if err := storeProbe([]storeSource{{tb.Store, tb.Runs}}, out); err != nil {
		return nil, err
	}
	monitorProbe([][]*exec.RunRecord{tb.Runs}, out)
	return out, nil
}
