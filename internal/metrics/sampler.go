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

	handles map[SeriesKey]*handle
	buf     []Sample // one call's samples, reused across calls
}

// handle is one series resolved for recording: the store it was last
// recorded to, that store's series, and the series' noise stream. A
// record call then costs one sampler lookup; its samples go straight
// to the series under the store lock.
type handle struct {
	store *Store
	ser   *series
	noise *simtime.Rand // created on the first noisy record
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

// handle resolves series k in store. The noise stream belongs to the
// sampler's series, not to the store: recording the same series into
// another store continues it.
func (sp *Sampler) handle(store *Store, k SeriesKey) *handle {
	h := sp.handles[k]
	if h == nil {
		if sp.handles == nil {
			sp.handles = make(map[SeriesKey]*handle)
		}
		h = &handle{}
		sp.handles[k] = h
	}
	if h.store != store {
		h.store, h.ser = store, store.resolve(k)
	}
	if h.noise == nil && sp.NoiseSigma > 0 {
		h.noise = simtime.NewRand(sp.Seed, "sampler/"+k.String())
	}
	return h
}

// interval returns the monitoring interval, defaulted.
func (sp *Sampler) interval() simtime.Duration {
	if sp.Interval <= 0 {
		return DefaultMonitorInterval
	}
	return sp.Interval
}

// grid calls fn with each monitoring interval of iv, in order: one per
// Interval from iv.Start, the last cut at iv.End.
func (sp *Sampler) grid(iv simtime.Interval, fn func(i int, w simtime.Interval)) {
	step := sp.interval()
	i := 0
	for start := iv.Start; start < iv.End; start = start.Add(step) {
		end := start.Add(step)
		if end > iv.End {
			end = iv.End
		}
		fn(i, simtime.NewInterval(start, end))
		i++
	}
}

// Windows returns the monitoring intervals of iv that Record and
// RecordMeans emit one sample each for, in order. Callers computing
// exact window means in bulk (Timeline.MeansOver) evaluate them over
// these windows.
func (sp *Sampler) Windows(iv simtime.Interval) []simtime.Interval {
	var out []simtime.Interval
	sp.grid(iv, func(_ int, w simtime.Interval) { out = append(out, w) })
	return out
}

// record appends one sample per monitoring interval of iv to store
// under (component, metric), each the jittered value of mean over its
// interval. Sample timestamps are the interval end points, matching how
// monitoring agents report. The samples go to the store in one batch.
func (sp *Sampler) record(store *Store, component string, metric Metric, iv simtime.Interval, mean func(i int, w simtime.Interval) float64) {
	k := SeriesKey{Component: component, Metric: metric}
	h := sp.handle(store, k)
	var noise *simtime.Rand
	if sp.NoiseSigma > 0 {
		noise = h.noise
	}
	buf := sp.buf[:0]
	sp.grid(iv, func(i int, w simtime.Interval) {
		v := mean(i, w)
		if noise != nil {
			v = noise.Jitter(v, sp.NoiseSigma)
		}
		buf = append(buf, Sample{T: w.End, V: v})
	})
	sp.buf = buf
	if err := store.appendTo(h.ser, k, buf); err != nil {
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
	sp.record(store, component, metric, iv, func(_ int, w simtime.Interval) float64 {
		start, end := w.Start, w.End
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

// RecordMeans appends one sample per monitoring interval of iv, the
// i-th being mean(i): the metric's exact time-average over the i-th
// window of Windows(iv). This matches how counters behave in real
// monitoring agents — a 3-second I/O burst still moves the interval's
// average by its exact share — and lets emitters compute every window
// mean of a chunk in one pass before recording. The grid-alignment
// requirement of Record applies here too.
func (sp *Sampler) RecordMeans(store *Store, component string, metric Metric, iv simtime.Interval, mean func(i int) float64) {
	sp.record(store, component, metric, iv, func(i int, _ simtime.Interval) float64 {
		return mean(i)
	})
}
