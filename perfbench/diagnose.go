package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"diads"
	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/experiments"
)

// The diagnose workload is the administrator at the Figure 7 console
// waiting for a verdict: a closed loop of diagnoseCallers callers, each
// running a cold diagnosis (no caches) round-robin over the nine
// scenarios, which set-up builds and simulates. The diagnosis DAG and
// metrics.Store window reads do nearly all the work, with no simulation
// and no store writes: it is the bypass workload for emission and
// ingest changes. Scenario 6 takes the plan-change short circuit.
//
// Each caller diagnoses its own copy of the scenarios, as two
// administrators each at their own instance's console would. Callers
// do not share an Input: diag's plan-change replay toggles indexes on
// the Input's catalog while re-planning, so concurrent diagnoses of one
// scenario 6 Input race and occasionally miss the index drop.
const (
	diagnoseCallers = 2
	// diagnoseRounds is how many passes over the scenarios each caller
	// makes per repetition.
	diagnoseRounds = 20
	// diagnoseSetups is how many times set-up builds the scenario set;
	// the last diagnoseCallers builds are the callers' copies.
	diagnoseSetups = 7
)

type diagnoseWorkload struct {
	seed    int64
	sets    [][]*experiments.Scenario // one scenario set per caller
	renders []string                  // reference report per scenario

	// Traced-repetition accumulators (under mu: callers run
	// concurrently).
	mu       sync.Mutex
	diagN    float64
	moduleMs map[string]float64
	latency  float64
}

func (w *diagnoseWorkload) setup(seed int64) ([]time.Duration, error) {
	w.seed = seed
	w.moduleMs = map[string]float64{}
	var times []time.Duration
	for i := 0; i < diagnoseSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		scs := make([]*experiments.Scenario, 0, 9)
		for id := diads.ScenarioSANMisconfig; id <= diads.ScenarioRAIDRebuild; id++ {
			sc, err := diads.BuildScenario(id, seed)
			if err != nil {
				return nil, err
			}
			scs = append(scs, sc)
		}
		times = append(times, time.Since(t0))
		if i >= diagnoseSetups-diagnoseCallers {
			w.sets = append(w.sets, scs)
		}
	}
	for c, scs := range w.sets {
		for _, sc := range scs {
			res, err := diads.DiagnoseWith(context.Background(), sc.Input, diads.DiagnoseConfig{})
			if err != nil {
				return nil, err
			}
			if !sc.Correct(res) {
				return nil, fmt.Errorf("scenario %d: wrong diagnosis", sc.ID)
			}
			if c == 0 {
				w.renders = append(w.renders, res.Render())
			} else if res.Render() != w.renders[sc.ID-1] {
				return nil, fmt.Errorf("scenario %d: caller %d's copy reports differently", sc.ID, c)
			}
		}
	}
	// Warm-up: one discarded repetition.
	if _, err := w.rep(false); err != nil {
		return nil, err
	}
	return times, nil
}

func (w *diagnoseWorkload) rep(traced bool) (*repResult, error) {
	type callerOut struct {
		lat               []float64
		attempted, failed int
		renders           []string
	}
	outs := make([]callerOut, diagnoseCallers)
	n := len(w.renders)
	var wg sync.WaitGroup
	m := startMeter()
	for c := 0; c < diagnoseCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.renders = make([]string, n)
			for k := 0; k < diagnoseRounds*n; k++ {
				sc := w.sets[c][(diagnoseCallers*k+c)%n]
				t0 := time.Now()
				var res *diag.Result
				var err error
				if traced {
					res, err = w.stepwise(sc)
				} else {
					res, err = diads.DiagnoseWith(context.Background(), sc.Input, diads.DiagnoseConfig{})
				}
				o.lat = append(o.lat, ms(time.Since(t0)))
				o.attempted++
				if err != nil {
					o.failed++
					warnf("scenario %d: %v", sc.ID, err)
					continue
				}
				render := res.Render()
				if ok := sc.Correct(res); !ok || render != w.renders[sc.ID-1] {
					o.failed++
					warnf("scenario %d: correct=%v, report differs from reference:\n%s\nreference:\n%s",
						sc.ID, ok, render, w.renders[sc.ID-1])
				}
				o.renders[sc.ID-1] = render
			}
		}(c)
	}
	wg.Wait()
	r := &repResult{phase: m.end()}
	var renders []string
	for _, o := range outs {
		r.lat = append(r.lat, o.lat...)
		r.attempted += o.attempted
		r.failed += o.failed
		renders = append(renders, o.renders...)
	}
	r.wrong = r.failed
	r.digest = reportDigest(renders...)
	return r, nil
}

// stepwise runs one diagnosis as the interactive workflow's module
// steps, timing each, and folds the self times into the accumulators.
// RunPD also builds the APG and RunSD also builds the fact base; the
// workflow's own per-step trace splits those two calls.
func (w *diagnoseWorkload) stepwise(sc *experiments.Scenario) (*diag.Result, error) {
	t0 := time.Now()
	wf, err := diads.NewWorkflow(sc.Input)
	if err != nil {
		return nil, err
	}
	self := map[string]time.Duration{}
	step := func(name string, fn func() error) error {
		s := time.Now()
		err := fn()
		self[name] += time.Since(s)
		return err
	}
	if err := step("pd", wf.RunPD); err != nil {
		return nil, err
	}
	if !wf.Res.PD.Changed {
		for _, s := range []struct {
			name string
			fn   func() error
		}{{"co", wf.RunCO}, {"da", wf.RunDA}, {"cr", wf.RunCR}, {"facts", wf.RunSD}, {"ia", wf.RunIA}} {
			if err := step(s.name, s.fn); err != nil {
				return nil, err
			}
		}
	}
	lat := time.Since(t0)
	for _, mt := range wf.Trace().Modules {
		switch mt.Module {
		case diag.KeyAPG:
			self["apg"] += mt.Wall
			self["pd"] -= mt.Wall
		case diag.KeySD:
			self["sd"] += mt.Wall
			self["facts"] -= mt.Wall
		}
	}
	w.mu.Lock()
	w.diagN++
	w.latency += ms(lat)
	for k, v := range self {
		w.moduleMs[k] += ms(v)
	}
	w.mu.Unlock()
	return wf.Res, nil
}

func (w *diagnoseWorkload) layers(time.Duration) (map[string]float64, error) {
	if w.diagN == 0 {
		return nil, errors.New("no traced diagnoses")
	}
	out := map[string]float64{}
	sum := 0.0
	for _, mod := range diagModules {
		v := w.moduleMs[mod] / w.diagN
		out["diag."+mod+"_ms"] = v
		sum += v
	}
	lat := w.latency / w.diagN
	out["diag.latency_ms"] = lat
	out["diag.other_ms"] = lat - sum

	if _, err := simulateProbe(experiments.OnlineSpec{Seed: w.seed}, out); err != nil {
		return nil, err
	}
	var srcs []storeSource
	var streams [][]*exec.RunRecord
	for _, sc := range w.sets[0] {
		srcs = append(srcs, storeSource{sc.Testbed.Store, sc.Input.Runs})
		streams = append(streams, sc.Testbed.Runs)
	}
	if err := storeProbe(srcs, out); err != nil {
		return nil, err
	}
	monitorProbe(streams, out)
	return out, nil
}
