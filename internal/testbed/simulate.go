package testbed

import (
	"fmt"
	"math"
	"sort"

	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// cpuPerRun is the CPU utilization a running query adds on the DB server.
const cpuPerRun = 0.25

// horizonMargin pads the monitoring horizon past the last activity. It
// is expressed in terms of the evidence-window padding and must stay
// strictly larger than one metrics.DefaultMonitorInterval: the final
// chunk's watermark is the horizon end, and an event for the very last
// run (read window ending rec.Stop + one interval) must still release
// from the gate — drivers have no separate end-of-stream flush.
//
//lint:allow readwindow emission-horizon margin sized to cover the last read window, not a read window itself
const horizonMargin = 2 * metrics.DefaultMonitorInterval

// timelineEvent is one chronological step of the simulation.
type timelineEvent struct {
	t    simtime.Time
	prio int // apply configuration changes before runs at the same time
	run  func() error
}

// Simulate plays the testbed's timeline: external loads are applied to
// the SAN model, then query runs, DML batches, index drops, and parameter
// changes execute in chronological order; finally the monitoring pipeline
// samples every component's behaviour into the metric store. Simulate may
// only be called once per testbed.
func (tb *Testbed) Simulate() error {
	return tb.SimulateStream(0, nil)
}

// SimulateStream plays the same timeline in chunks, the testbed's online
// operating mode: after all events up to each chunk boundary have
// executed, the monitoring pipeline emits the samples for that chunk
// (monitoring lags execution, as in production) and onChunk is invoked
// with the boundary time so a streaming consumer — the monitor/service
// pipeline — can poll metrics and drain slowdown events "live". Runs
// themselves stream through exec.Engine.OnRunComplete the moment they
// finish. A chunk of 0 plays the whole timeline as one chunk. Like
// Simulate, it may only be called once per testbed.
//
// Emission is aligned to the monitoring-interval grid and holds back
// incomplete intervals: each chunk emits only the monitoring intervals
// that have fully elapsed, and the trailing partial interval flushes
// with the final chunk. Two guarantees follow. First, the boundary time
// onChunk receives is a metric watermark — every sample with a
// timestamp at or before it has been emitted, and no future chunk can
// append one at or before it — which is what lets drivers pass it
// straight to monitor.Gate.Release. Second, the emitted sample set (and,
// with the sampler's per-series noise streams, every sample value) is
// byte-identical whatever the chunk size, including the single-chunk
// batch run, so diagnosis results cannot depend on chunking.
func (tb *Testbed) SimulateStream(chunk simtime.Duration, onChunk func(now simtime.Time) error) error {
	if tb.simulated {
		return fmt.Errorf("testbed: already simulated")
	}
	tb.simulated = true

	var loadEnd simtime.Time
	for _, l := range tb.Loads {
		for _, seg := range l.Segments() {
			tb.SAN.AddLoad(seg)
		}
		if l.Window.End > loadEnd {
			loadEnd = l.Window.End
		}
	}

	events := tb.timeline()

	if chunk <= 0 {
		for _, ev := range events {
			if err := ev.run(); err != nil {
				return err
			}
		}
		end := tb.activityEnd(loadEnd)
		tb.Horizon = simtime.NewInterval(0, end)
		tb.emitMetrics(tb.Horizon)
		if onChunk != nil {
			return onChunk(end)
		}
		return nil
	}

	i := 0
	var emitted simtime.Time
	for boundary := simtime.Time(chunk); ; boundary = boundary.Add(chunk) {
		for i < len(events) && events[i].t < boundary {
			if err := events[i].run(); err != nil {
				return err
			}
			i++
		}
		stop := boundary
		done := false
		if i == len(events) {
			if end := tb.activityEnd(loadEnd); end <= boundary {
				stop, done = end, true
			}
		}
		// Emit only fully-elapsed monitoring intervals; the final chunk
		// flushes the partial tail so the store matches a batch run's.
		cover := stop
		if !done {
			cover = tb.monitorGrid(stop)
		}
		if cover > emitted {
			tb.emitMetrics(simtime.NewInterval(emitted, cover))
			emitted = cover
		}
		if onChunk != nil {
			if err := onChunk(stop); err != nil {
				return err
			}
		}
		if done {
			tb.Horizon = simtime.NewInterval(0, stop)
			return nil
		}
	}
}

// timeline assembles the chronologically sorted event list.
func (tb *Testbed) timeline() []timelineEvent {
	var events []timelineEvent
	runSeq := 0
	for _, qs := range tb.Schedules {
		qs := qs
		for _, t := range qs.Times() {
			t := t
			events = append(events, timelineEvent{t: t, prio: 1, run: func() error {
				return tb.runQuery(qs.Query, t, &runSeq)
			}})
		}
	}
	for _, d := range tb.DMLs {
		d := d
		events = append(events, timelineEvent{t: d.T, prio: 0, run: func() error {
			if err := tb.Cat.ScaleRows(d.Table, d.Factor); err != nil {
				return err
			}
			tb.Cfg.Log.Record(topology.Event{
				T: d.T, Kind: topology.EvDMLBatch, Subject: topology.ID(d.Table),
				Detail: fmt.Sprintf("bulk DML scaled %s cardinality by %.2fx", d.Table, d.Factor),
			})
			return nil
		}})
	}
	for _, ix := range tb.IndexDrops {
		ix := ix
		events = append(events, timelineEvent{t: ix.T, prio: 0, run: func() error {
			if !tb.Cat.DropIndex(ix.Index) {
				return fmt.Errorf("testbed: drop of unknown index %q", ix.Index)
			}
			tb.Cfg.Log.Record(topology.Event{
				T: ix.T, Kind: topology.EvIndexDropped, Subject: topology.ID(ix.Index),
				Detail: "index dropped by maintenance script",
			})
			return nil
		}})
	}
	for _, pc := range tb.ParamChanges {
		pc := pc
		events = append(events, timelineEvent{t: pc.T, prio: 0, run: func() error {
			old := tb.Params.Set(pc.Param, pc.Value)
			tb.Cfg.Log.Record(topology.Event{
				T: pc.T, Kind: topology.EvParamChanged, Subject: topology.ID(pc.Param),
				Detail: fmt.Sprintf("%s: %g -> %g", pc.Param, old, pc.Value),
			})
			return nil
		}})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].prio < events[j].prio
	})
	return events
}

// monitorGrid floors t to the monitoring-interval grid (multiples of the
// sampler's interval from the simulation epoch): the point through which
// complete intervals can be emitted at a chunk boundary.
func (tb *Testbed) monitorGrid(t simtime.Time) simtime.Time {
	step := tb.Sampler.Interval
	if step <= 0 {
		step = metrics.DefaultMonitorInterval
	}
	return simtime.Time(math.Floor(float64(t)/float64(step)) * float64(step))
}

// activityEnd returns the monitoring horizon end: the last activity
// (external load or run) plus a margin.
func (tb *Testbed) activityEnd(loadEnd simtime.Time) simtime.Time {
	end := loadEnd
	// lastActivity, not a Runs scan: Retain may have trimmed records
	// whose Stop once defined the horizon end.
	if tb.lastActivity > end {
		end = tb.lastActivity
	}
	return end.Add(horizonMargin)
}

// runQuery optimizes and executes one scheduled run.
func (tb *Testbed) runQuery(query string, t simtime.Time, seq *int) error {
	p, err := tb.Opt.PlanQuery(query, tb.Stats, tb.Params)
	if err != nil {
		return err
	}
	*seq++
	runID := fmt.Sprintf("run-%s-%03d", query, *seq)
	rec, err := tb.Engine.Run(p, t, runID)
	if err != nil {
		return err
	}
	tb.Runs = append(tb.Runs, rec)
	if rec.Stop > tb.lastActivity {
		tb.lastActivity = rec.Stop
	}
	// The run occupies the server CPU while it executes.
	tb.CPULoad.Add("cpu", simtime.NewInterval(rec.Start, rec.Stop), cpuPerRun, runID)
	// Its activity rates become the database-level monitoring series.
	if dur := float64(rec.Duration()); dur > 0 {
		iv := simtime.NewInterval(rec.Start, rec.Stop)
		tb.dbAct.Add("blocksread", iv, rec.PhysIO/dur, runID)
		tb.dbAct.Add("bufferhits", iv, rec.CacheHit/dur, runID)
		tb.dbAct.Add("lockwait", iv, float64(rec.LockWait)/dur, runID)
		tb.dbAct.Add("idxscans", iv, float64(rec.IdxScans)/dur, runID)
		tb.dbAct.Add("seqscans", iv, float64(rec.SeqScans)/dur, runID)
	}
	return nil
}

// RunsFor returns the run history of one query in time order.
func (tb *Testbed) RunsFor(query string) []*exec.RunRecord {
	var out []*exec.RunRecord
	for _, r := range tb.Runs {
		if r.Query == query {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// emitMetrics runs the monitoring pipeline over one window. Streaming
// simulation calls it once per chunk with consecutive windows; batch
// simulation once with the full horizon. Windows must not overlap, since
// the store rejects out-of-order samples.
func (tb *Testbed) emitMetrics(iv simtime.Interval) {
	if iv.Length() <= 0 {
		return
	}
	tb.SAN.EmitMetrics(tb.Store, tb.Sampler, iv)
	tb.SAN.EmitNetworkMetrics(tb.Store, tb.Sampler, iv, ServerDB)

	// Server metrics: CPU from the load timeline (exact interval means, as
	// a real agent's counters would report); memory mostly flat.
	windows := tb.Sampler.Windows(iv)
	means := make([]float64, len(windows))
	tb.CPULoad.MeansOver("cpu", windows, means)
	tb.Sampler.RecordMeans(tb.Store, string(ServerDB), metrics.SrvCPUUsagePct, iv,
		func(i int) float64 { return 100 * minf(0.08+means[i], 1) })
	tb.Sampler.Record(tb.Store, string(ServerDB), metrics.SrvPhysMemoryPct, iv, metrics.Constant(62))
	tb.Sampler.Record(tb.Store, string(ServerDB), metrics.SrvProcesses, iv, metrics.Constant(180))

	// Database metrics: per-run activity rates plus lock-manager state.
	rec := func(metric metrics.Metric, key string) {
		tb.dbAct.MeansOver(key, windows, means)
		tb.Sampler.RecordMeans(tb.Store, DBInstance, metric, iv, func(i int) float64 { return means[i] })
	}
	rec(metrics.DBBlocksRead, "blocksread")
	rec(metrics.DBBufferHits, "bufferhits")
	rec(metrics.DBLockWaitTime, "lockwait")
	rec(metrics.DBIndexScans, "idxscans")
	rec(metrics.DBSequentialScans, "seqscans")
	// The lock manager promises no change points, so the sampler
	// re-evaluates it at every sub-step.
	tb.Sampler.Record(tb.Store, DBInstance, metrics.DBLocksHeld, iv,
		func(t simtime.Time) (float64, simtime.Time) { return float64(tb.Locks.HeldAt(t)), t })
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
