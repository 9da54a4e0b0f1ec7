package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"diads/internal/simtime"
	"diads/internal/telemetry"
)

// Sample is one monitored observation: the value of a metric on a
// component, averaged over the monitoring interval ending at T.
type Sample struct {
	T simtime.Time
	V float64
}

// SeriesKey identifies one time series in the store.
type SeriesKey struct {
	Component string
	Metric    Metric
}

// String implements fmt.Stringer.
func (k SeriesKey) String() string {
	return fmt.Sprintf("%s/%s", k.Component, k.Metric)
}

// segmentSize is the number of samples per storage segment. Truncation
// frees memory a whole segment at a time, so the size trades truncation
// granularity (one segment of slack per series) against per-segment
// bookkeeping. At the 5-minute monitoring interval, 256 samples cover
// about 21 simulated hours.
const segmentSize = 256

// Process-wide retention accounting, exposed as callback-backed
// instruments: per-store registration is infeasible at fleet scale
// (thousands of stores), and the budget that matters — live heap — is a
// process property anyway.
var (
	liveSamples    atomic.Int64
	truncatedTotal atomic.Int64
)

func init() {
	reg := telemetry.Default()
	reg.GaugeFunc("diads_store_samples_live",
		"samples currently resident across all metric stores", nil,
		func() float64 { return float64(liveSamples.Load()) })
	reg.CounterFunc("diads_store_truncated_total",
		"samples dropped by retention truncation across all metric stores", nil,
		func() float64 { return float64(truncatedTotal.Load()) })
}

// TruncatedTotal reports the process-wide count of samples dropped by
// retention truncation — the number behind the
// diads_store_truncated_total instrument, exported so tests can assert
// a retention-enabled run actually truncated (parity alone would pass
// vacuously if retention never fired).
func TruncatedTotal() int64 { return truncatedTotal.Load() }

// segment is one fixed-size run of a series. Its prefix sums are
// ABSOLUTE — anchored to the series origin, not the segment start — so
// window aggregates computed after older segments are dropped subtract
// exactly the same floating-point values they did before, making
// truncation bit-invisible to every surviving window query.
//
// Each sample is stored beside its prefix sums, so an append writes one
// place in memory rather than three parallel arrays.
type segment struct {
	start   int // absolute index of samples[0] within the series
	samples []entry
}

// entry is one stored sample with the series' cumulative sums through it.
type entry struct {
	Sample
	sum  float64 // Σ series samples[:start+i+1].V
	sum2 float64 // Σ series samples[:start+i+1].V²
}

// last returns the segment's newest entry; segments are never empty.
func (seg *segment) last() entry { return seg.samples[len(seg.samples)-1] }

// series holds one time series as a list of segments plus running prefix
// sums of value and squared value, so any window aggregate (mean,
// variance) is a few binary searches and a subtraction instead of a
// scan. Appends stay O(1) amortized, which is what lets the online
// monitor query baselines on every new sample without re-reading
// history. Truncation drops whole leading segments and carries their
// final cumulative sums in baseSum/baseSum2, preserving the absolute
// anchoring.
//
// The newest sample's time and cumulative sums are kept beside the
// segment list, so the append path's order check and running sums read
// the series header instead of chasing the tail segment's arrays.
type series struct {
	dropped  int     // absolute index of the first retained sample
	baseSum  float64 // cumulative sum through sample dropped-1
	baseSum2 float64 // cumulative sum of squares through sample dropped-1
	segs     []*segment
	lastT    simtime.Time // T of the newest sample ever appended
	cum      float64      // cumulative sum through the newest sample
	cum2     float64      // cumulative sum of squares through the newest sample
}

// live returns the number of retained samples.
func (ser *series) live() int {
	if len(ser.segs) == 0 {
		return 0
	}
	last := ser.segs[len(ser.segs)-1]
	return last.start + len(last.samples) - ser.dropped
}

// total returns the absolute sample count, dropped samples included.
// Absolute indices in [dropped, total) address retained samples.
func (ser *series) total() int { return ser.dropped + ser.live() }

// locate returns the segment holding the retained sample at absolute
// index abs and its in-segment offset. abs must be in [dropped, total).
func (ser *series) locate(abs int) (*segment, int) {
	si := sort.Search(len(ser.segs), func(i int) bool { return ser.segs[i].start > abs })
	seg := ser.segs[si-1]
	return seg, abs - seg.start
}

// at returns the retained sample at absolute index abs.
func (ser *series) at(abs int) Sample {
	seg, i := ser.locate(abs)
	return seg.samples[i].Sample
}

// cumAt returns the absolute cumulative (sum, sum²) through sample abs.
// abs may be dropped-1 (the carried base) or any retained index.
func (ser *series) cumAt(abs int) (float64, float64) {
	if abs < ser.dropped {
		return ser.baseSum, ser.baseSum2
	}
	seg, i := ser.locate(abs)
	return seg.samples[i].sum, seg.samples[i].sum2
}

// searchT returns the absolute index of the first retained sample with
// T >= t, or total() if there is none.
func (ser *series) searchT(t simtime.Time) int {
	si := sort.Search(len(ser.segs), func(i int) bool {
		seg := ser.segs[i]
		return seg.last().T >= t
	})
	if si == len(ser.segs) {
		return ser.total()
	}
	seg := ser.segs[si]
	j := sort.Search(len(seg.samples), func(i int) bool { return seg.samples[i].T >= t })
	return seg.start + j
}

// bounds returns the absolute index range [lo, hi) of retained samples
// inside iv. Callers must hold at least the read lock.
func (ser *series) bounds(iv simtime.Interval) (lo, hi int) {
	return ser.searchT(iv.Start), ser.searchT(iv.End)
}

// copyRange copies retained samples [lo, hi) (absolute indices) into a
// fresh slice.
func (ser *series) copyRange(lo, hi int) []Sample {
	if hi <= lo {
		return nil
	}
	out := make([]Sample, 0, hi-lo)
	for _, seg := range ser.segs {
		end := seg.start + len(seg.samples)
		if end <= lo {
			continue
		}
		if seg.start >= hi {
			break
		}
		from, to := 0, len(seg.samples)
		if lo > seg.start {
			from = lo - seg.start
		}
		if hi < end {
			to = hi - seg.start
		}
		for _, e := range seg.samples[from:to] {
			out = append(out, e.Sample)
		}
	}
	return out
}

// tail returns the segment holding the newest retained sample, or nil
// when none is retained. Segments are never empty, so its last sample is
// the series' last.
func (ser *series) tail() *segment {
	if len(ser.segs) == 0 {
		return nil
	}
	return ser.segs[len(ser.segs)-1]
}

// append adds one sample with absolute cumulative sums carried from the
// previous sample (through the truncation base when every earlier
// sample was dropped). size is the capacity of any new segment; a
// partially-filled trailing segment keeps its own.
func (ser *series) append(sample Sample, size int) {
	seg := ser.tail()
	if seg == nil || len(seg.samples) == cap(seg.samples) {
		seg = &segment{
			start:   ser.total(),
			samples: make([]entry, 0, size),
		}
		ser.segs = append(ser.segs, seg)
	}
	ser.lastT = sample.T
	ser.cum += sample.V
	ser.cum2 += sample.V * sample.V
	seg.samples = append(seg.samples, entry{sample, ser.cum, ser.cum2})
}

// truncate drops whole leading segments whose samples all lie strictly
// before the horizon, carrying their final cumulative sums so surviving
// aggregates are bit-identical. It returns the number of samples
// dropped.
func (ser *series) truncate(before simtime.Time) int {
	n := 0
	for len(ser.segs) > 0 {
		seg := ser.segs[0]
		last := seg.last()
		if last.T >= before {
			break
		}
		ser.baseSum, ser.baseSum2 = last.sum, last.sum2
		ser.dropped += len(seg.samples)
		n += len(seg.samples)
		ser.segs[0] = nil
		ser.segs = ser.segs[1:]
	}
	return n
}

// Store is the central monitoring repository, standing in for the
// management tool's DB2 time-series database. Samples for a series must be
// appended in non-decreasing time order, which is how the sampler produces
// them. All methods are safe for concurrent use.
//
// The store is retention-aware: Truncate drops evidence older than a
// horizon, segment by segment, and every cursor and aggregate is
// expressed in absolute sample indices so truncation is invisible to
// readers of the surviving window (see DESIGN.md "Memory model &
// retention").
//
// A sorted per-component metric index, updated when a series is
// created, answers Keys, Components and MetricsFor without sorting the
// key set. Series are never removed (truncation empties them), so the
// index always lists exactly the map's keys, and a *series resolved
// once (the Sampler's handles) stays the store's series for good.
type Store struct {
	mu     sync.RWMutex
	seg    int // segment capacity for new segments; 0 = segmentSize
	series map[SeriesKey]*series
	comps  []string            // distinct components, sorted
	byComp map[string][]Metric // each component's metrics, sorted
	// headBound is a lower bound on every series' first-segment
	// newest T (+Inf with no retained samples). Truncate drops a
	// segment only when its newest T lies before the horizon, so a
	// horizon at or below the bound drops nothing and skips the scan.
	headBound simtime.Time
}

// NewStore returns an empty monitoring store.
func NewStore() *Store {
	return &Store{
		series:    make(map[SeriesKey]*series),
		byComp:    make(map[string][]Metric),
		headBound: simtime.Time(math.Inf(1)),
	}
}

// SetSegmentSize overrides the granularity of segments created by
// subsequent appends (default 256 samples). Smaller segments tighten
// retention — truncation frees whole segments, leaving at most one
// segment of slack per series — at the cost of more per-segment
// bookkeeping. Segmentation never affects values: prefix sums are
// running cumulative sums over the sample sequence, so every window
// aggregate is bit-identical under any segment size. Values below 1
// restore the default.
func (s *Store) SetSegmentSize(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 0
	}
	s.seg = n
}

// Append records one sample for (component, metric). It returns an error if
// the sample is out of time order for its series.
func (s *Store) Append(component string, metric Metric, sample Sample) error {
	k := SeriesKey{Component: component, Metric: metric}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(s.resolveLocked(k), k, []Sample{sample})
}

// resolve returns the series k, creating and indexing it on first use.
// The pointer stays valid for the store's lifetime.
func (s *Store) resolve(k SeriesKey) *series {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveLocked(k)
}

// resolveLocked is resolve for callers holding the write lock.
func (s *Store) resolveLocked(k SeriesKey) *series {
	ser := s.series[k]
	if ser == nil {
		ser = &series{}
		s.series[k] = ser
		s.index(k)
	}
	return ser
}

// appendTo records samples, in order, to ser — the store's series k,
// resolved earlier — under a single lock: the sampler's write path, one
// call per series per emission window. It fails like the equivalent run
// of Append calls.
func (s *Store) appendTo(ser *series, k SeriesKey, samples []Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(ser, k, samples)
}

// appendLocked appends samples to ser, the series k. It stops at the
// first sample older than its predecessor, keeping the samples before
// it. A sample that starts a series' first retained segment lowers the
// truncation bound. Callers must hold the write lock.
func (s *Store) appendLocked(ser *series, k SeriesKey, samples []Sample) error {
	size := s.seg
	if size == 0 {
		size = segmentSize
	}
	for i, sample := range samples {
		if len(ser.segs) == 0 {
			s.headBound = min(s.headBound, sample.T)
		} else if sample.T < ser.lastT {
			liveSamples.Add(int64(i))
			return fmt.Errorf("metrics: out-of-order sample for %s: %v after %v", k, sample.T, ser.lastT)
		}
		ser.append(sample, size)
	}
	liveSamples.Add(int64(len(samples)))
	return nil
}

// index adds a new series key to the component index, keeping both
// levels sorted. Callers must hold the write lock.
func (s *Store) index(k SeriesKey) {
	ms, ok := s.byComp[k.Component]
	if !ok {
		i, _ := slices.BinarySearch(s.comps, k.Component)
		s.comps = slices.Insert(s.comps, i, k.Component)
	}
	i, _ := slices.BinarySearch(ms, k.Metric)
	s.byComp[k.Component] = slices.Insert(ms, i, k.Metric)
}

// MustAppend is Append for simulator-internal callers where out-of-order
// appends indicate a bug; it panics on error.
func (s *Store) MustAppend(component string, metric Metric, sample Sample) {
	if err := s.Append(component, metric, sample); err != nil {
		panic(err)
	}
}

// Truncate drops samples older than the horizon, whole segments at a
// time: a segment is freed only when every sample in it has T < before.
// Window aggregates over any interval at or above the horizon are
// bit-identical before and after — the prefix sums stay anchored to the
// series origin — which is what lets retention run under the fleet's
// byte-determinism contract. It returns the number of samples dropped.
//
// Callers must derive the horizon from the evidence low watermark
// (monitor warm-up, open-event read windows, undiagnosed run history);
// truncating past it discards evidence a future diagnosis may read.
//
// A horizon at or below every series' oldest droppable segment returns
// 0 without visiting the series; retention calls Truncate at every
// barrier, and most horizons fall inside the first segments.
func (s *Store) Truncate(before simtime.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if before <= s.headBound {
		return 0
	}
	n := 0
	bound := simtime.Time(math.Inf(1))
	//lint:allow mapiter per-series truncation is independent, the integer drop count commutes, and min is order-free
	for _, ser := range s.series {
		n += ser.truncate(before)
		if len(ser.segs) > 0 {
			bound = min(bound, ser.segs[0].last().T)
		}
	}
	s.headBound = bound
	if n > 0 {
		liveSamples.Add(int64(-n))
		truncatedTotal.Add(int64(n))
	}
	return n
}

// get returns the series for (component, metric), or nil. Callers must
// hold at least the read lock.
func (s *Store) get(component string, metric Metric) *series {
	return s.series[SeriesKey{Component: component, Metric: metric}]
}

// Series returns all retained samples of a series in time order. The
// returned slice is a copy and may be retained by the caller.
func (s *Store) Series(component string, metric Metric) []Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return nil
	}
	return ser.copyRange(ser.dropped, ser.total())
}

// Window returns the samples of a series whose timestamps lie in iv.
func (s *Store) Window(component string, metric Metric, iv simtime.Interval) []Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return nil
	}
	lo, hi := ser.bounds(iv)
	return ser.copyRange(lo, hi)
}

// WindowMean returns the mean value of the series over iv and the number of
// samples it covers. With zero samples the mean is 0. It runs in O(log n)
// via the prefix sums, independent of the window's length.
func (s *Store) WindowMean(component string, metric Metric, iv simtime.Interval) (mean float64, n int) {
	st := s.WindowStats(component, metric, iv)
	return st.Mean, st.N
}

// Stats summarizes a window of one series.
type Stats struct {
	N    int
	Sum  float64
	Mean float64
	// Std is the population standard deviation of the window.
	Std float64
}

// WindowStats returns count, sum, mean, and standard deviation of the
// series over iv in O(log n), using the per-series prefix sums. This is
// the incremental query the online monitor relies on: evaluating a
// baseline window costs the same whether the store holds a day or a year
// of samples.
func (s *Store) WindowStats(component string, metric Metric, iv simtime.Interval) Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return Stats{}
	}
	lo, hi := ser.bounds(iv)
	n := hi - lo
	if n <= 0 {
		return Stats{}
	}
	sum, sum2 := ser.cumAt(hi - 1)
	if lo > 0 {
		psum, psum2 := ser.cumAt(lo - 1)
		sum -= psum
		sum2 -= psum2
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if variance < 0 { // floating-point cancellation
		variance = 0
	}
	return Stats{N: n, Sum: sum, Mean: mean, Std: math.Sqrt(variance)}
}

// Since returns a copy of the samples appended to the series after the
// given cursor position, plus the new cursor. A zero cursor starts at the
// beginning; feeding the returned cursor back yields only samples that
// arrived in between. This is how streaming consumers (the monitor's
// metric watcher) tail the store without re-scanning it. Cursors are
// absolute sample indices, so they stay valid across Truncate: a cursor
// pointing into the dropped prefix resumes at the first retained sample.
func (s *Store) Since(component string, metric Metric, cursor int) ([]Sample, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return nil, cursor
	}
	if cursor < ser.dropped {
		cursor = ser.dropped
	}
	total := ser.total()
	if cursor >= total {
		return nil, total
	}
	return ser.copyRange(cursor, total), total
}

// Latest returns the most recent retained sample of the series, if any.
func (s *Store) Latest(component string, metric Metric) (Sample, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil || ser.live() == 0 {
		return Sample{}, false
	}
	return ser.at(ser.total() - 1), true
}

// Keys returns every series key in the store, sorted by component and
// then metric for deterministic iteration.
func (s *Store) Keys() []SeriesKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]SeriesKey, 0, len(s.series))
	for _, c := range s.comps {
		for _, m := range s.byComp[c] {
			keys = append(keys, SeriesKey{Component: c, Metric: m})
		}
	}
	return keys
}

// Components returns the distinct component IDs present in the store,
// sorted.
func (s *Store) Components() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.comps)
}

// MetricsFor returns the metrics recorded for a component, sorted, or
// nil for a component the store has never seen.
func (s *Store) MetricsFor(component string) []Metric {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.byComp[component])
}

// Len returns the total number of retained samples across all series.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	//lint:allow mapiter live() is a pure per-series count and the integer sum commutes
	for _, ser := range s.series {
		n += ser.live()
	}
	return n
}

// Dropped returns the total number of samples truncated from the store
// over its lifetime.
func (s *Store) Dropped() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ser := range s.series {
		n += ser.dropped
	}
	return n
}
