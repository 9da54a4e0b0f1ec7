package metrics

import (
	"math"

	"diads/internal/simtime"
)

// DefaultMonitorInterval is the production monitoring interval the paper
// cites as typical ("5 minutes or higher"), which is what averages out
// spikes and produces noisy data.
const DefaultMonitorInterval = 5 * simtime.Minute

// ReadWindow pads an activity window (a run's or operator's [start, stop]
// span, or a slowdown event's run-history span) by the monitoring
// interval on both sides. It is the single definition of the evidence
// window the diagnosis layers read: coarse series contribute their
// nearest samples, and the monitor's Gate holds an event until the
// emission watermark covers the padded window, so a diagnosis never
// races metric emission. Every window-padded metric read in the
// codebase must go through this function — a second copy of the padding
// arithmetic is how the watermark and the read window drift apart.
func ReadWindow(iv simtime.Interval) simtime.Interval {
	return simtime.NewInterval(
		iv.Start.Add(-DefaultMonitorInterval),
		iv.End.Add(DefaultMonitorInterval))
}

// TrueValueFunc reports the instantaneous "ground truth" value v of a
// metric at simulated time t, and until, the time up to which that value
// holds: the function returns v for every instant in [t, until). The
// sampler integrates it over each monitoring interval and calls it again
// only once its integration midpoints reach until, so a piecewise-
// constant model is evaluated once per change point instead of once per
// sub-step. until must never overshoot a change; a function that cannot
// promise anything (it reads mutable state) returns until = t, which
// re-evaluates it at every sub-step. Diagnosis code only ever sees the
// resulting averages.
type TrueValueFunc func(t simtime.Time) (v float64, until simtime.Time)

// Constant returns a TrueValueFunc that holds c at all times.
func Constant(c float64) TrueValueFunc {
	return func(simtime.Time) (float64, simtime.Time) { return c, simtime.Time(math.Inf(1)) }
}

// Sampler converts instantaneous component behaviour into the coarse,
// noisy series a production monitoring tool records.
//
// Measurement noise is drawn from a per-series random stream derived
// from (Seed, component, metric), never from one shared stream: a
// series' noise then depends only on its own sample count, so emitting
// the timeline in chunks of any size — or adding new series — produces
// byte-identical samples to a single batch emission. Samplers are not
// safe for concurrent use.
type Sampler struct {
	// Interval is the monitoring interval (default 5 minutes). The
	// evidence-window contract (ReadWindow) pads reads by
	// DefaultMonitorInterval regardless of this setting, so an interval
	// coarser than the default leaves run windows without samples —
	// keep overrides at or below DefaultMonitorInterval.
	Interval simtime.Duration
	// SubStep is the integration step used to average the true value
	// across an interval.
	SubStep simtime.Duration
	// NoiseSigma is the log-normal measurement-noise sigma applied to each
	// recorded sample (0 disables noise).
	NoiseSigma float64
	// Seed derives the per-series noise streams.
	Seed int64

	rands map[SeriesKey]*simtime.Rand
	buf   []Sample // one call's samples, reused across calls
}

// NewSampler returns a sampler with the production defaults: 5-minute
// intervals, 15-second integration steps, and the given noise level.
// The seed derives the per-series measurement-noise streams.
func NewSampler(noiseSigma float64, seed int64) *Sampler {
	return &Sampler{
		Interval:   DefaultMonitorInterval,
		SubStep:    15 * simtime.Second,
		NoiseSigma: noiseSigma,
		Seed:       seed,
	}
}

// rand returns the noise stream for one series, creating it on first use.
func (sp *Sampler) rand(component string, metric Metric) *simtime.Rand {
	k := SeriesKey{Component: component, Metric: metric}
	if r, ok := sp.rands[k]; ok {
		return r
	}
	if sp.rands == nil {
		sp.rands = make(map[SeriesKey]*simtime.Rand)
	}
	r := simtime.NewRand(sp.Seed, "sampler/"+k.String())
	sp.rands[k] = r
	return r
}

// interval returns the monitoring interval, defaulted.
func (sp *Sampler) interval() simtime.Duration {
	if sp.Interval <= 0 {
		return DefaultMonitorInterval
	}
	return sp.Interval
}

// record appends one sample per monitoring interval of iv to store
// under (component, metric), each the jittered value of mean over its
// interval. Sample timestamps are the interval end points, matching how
// monitoring agents report. The series' noise stream is looked up once
// and the samples go to the store in one batch.
func (sp *Sampler) record(store *Store, component string, metric Metric, iv simtime.Interval, mean func(start, end simtime.Time) float64) {
	step := sp.interval()
	var noise *simtime.Rand
	if sp.NoiseSigma > 0 {
		noise = sp.rand(component, metric)
	}
	buf := sp.buf[:0]
	for start := iv.Start; start < iv.End; start = start.Add(step) {
		end := start.Add(step)
		if end > iv.End {
			end = iv.End
		}
		v := mean(start, end)
		if noise != nil {
			v = noise.Jitter(v, sp.NoiseSigma)
		}
		buf = append(buf, Sample{T: end, V: v})
	}
	sp.buf = buf
	if err := store.appendSeries(component, metric, buf); err != nil {
		panic(err)
	}
}

// Record samples fn over [iv.Start, iv.End) and appends one sample per
// monitoring interval to store under (component, metric). Each sample is
// the midpoint-rule mean of fn over its interval, one term per sub-step;
// a term whose midpoint lies before the until of the previous evaluation
// reuses its value, which leaves every sum bit-identical to evaluating
// fn at each midpoint. The sampling grid is anchored at iv.Start:
// callers emitting a timeline in chunks must pass windows starting on
// multiples of Interval (the testbed's emission watermark guarantees
// it), so chunked and batch emission produce identical sample sets.
// Out-of-order emission is a simulator bug and panics.
func (sp *Sampler) Record(store *Store, component string, metric Metric, iv simtime.Interval, fn TrueValueFunc) {
	sub := sp.SubStep
	if step := sp.interval(); sub <= 0 || sub > step {
		sub = step / 10
	}
	var v float64
	until := simtime.Time(math.Inf(-1))
	sp.record(store, component, metric, iv, func(start, end simtime.Time) float64 {
		var sum float64
		var n int
		for t := start; t < end; t = t.Add(sub) {
			mid := t.Add(sub / 2)
			if mid >= end {
				mid = t.Add(simtime.Duration(float64(end.Sub(t)) / 2))
			}
			if mid >= until {
				v, until = fn(mid)
			}
			sum += v
			n++
		}
		return sum / float64(n)
	})
}

// WindowMeanFunc reports the exact time-average of a metric over an
// interval; used for rate metrics whose averages are linear in the
// underlying load segments.
type WindowMeanFunc func(iv simtime.Interval) float64

// RecordWindowMean appends one sample per monitoring interval using exact
// window means instead of numeric integration. This matches how counters
// behave in real monitoring agents: a 3-second I/O burst still moves the
// interval's average by its exact share. The grid-alignment requirement
// of Record applies here too.
func (sp *Sampler) RecordWindowMean(store *Store, component string, metric Metric, iv simtime.Interval, fn WindowMeanFunc) {
	sp.record(store, component, metric, iv, func(start, end simtime.Time) float64 {
		return fn(simtime.NewInterval(start, end))
	})
}
