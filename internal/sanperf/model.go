package sanperf

import (
	"fmt"
	"math"

	"diads/internal/simtime"
	"diads/internal/topology"
)

// DiskParams characterize one class of physical disk.
type DiskParams struct {
	// RandomReadService is the service time of one random read I/O.
	RandomReadService simtime.Duration
	// SequentialReadService is the service time of one sequential read.
	SequentialReadService simtime.Duration
	// WriteService is the service time of one (cached) write.
	WriteService simtime.Duration
	// MaxUtil caps the utilization used in the queueing law; beyond it the
	// model saturates rather than diverging.
	MaxUtil float64
}

// DefaultDiskParams returns parameters resembling an enterprise 15k-RPM FC
// disk behind a controller write cache.
func DefaultDiskParams() DiskParams {
	return DiskParams{
		RandomReadService:     simtime.Duration(0.006), // 6 ms
		SequentialReadService: simtime.Duration(0.0008),
		WriteService:          simtime.Duration(0.002),
		MaxUtil:               0.92,
	}
}

// Load describes an I/O load applied to a volume over an interval.
type Load struct {
	Volume    topology.ID
	Iv        simtime.Interval
	ReadIOPS  float64
	WriteIOPS float64
	// SeqFrac is the fraction of reads that are sequential.
	SeqFrac float64
	// Source names the contributor (workload id, query run id, fault id).
	Source string
}

// Model is the SAN performance model. All mutating methods may be called
// in any order before queries; queries are pure functions of the recorded
// load state.
type Model struct {
	cfg    *topology.Config
	params DiskParams

	reads    *Timeline // key: volKey(vol) — read IOPS
	writes   *Timeline // key: volKey(vol) — write IOPS
	seqReads *Timeline // key: volKey(vol) — sequential read IOPS
	diskUtil *Timeline // key: diskKey(disk) — extra utilization fraction
	outage   *Timeline // key: diskKey(disk) — 1 while disk out of service
}

// NewModel returns a performance model over the given SAN configuration.
func NewModel(cfg *topology.Config, params DiskParams) *Model {
	return &Model{
		cfg:      cfg,
		params:   params,
		reads:    NewTimeline(),
		writes:   NewTimeline(),
		seqReads: NewTimeline(),
		diskUtil: NewTimeline(),
		outage:   NewTimeline(),
	}
}

// Config returns the SAN configuration the model operates over.
func (m *Model) Config() *topology.Config { return m.cfg }

// Params returns the disk parameters.
func (m *Model) Params() DiskParams { return m.params }

// Timeline keys are the component IDs themselves: each metric lives in its
// own Timeline, so volume and disk IDs cannot collide and the conversion
// stays allocation-free on the query path.
func volKey(v topology.ID) string  { return string(v) }
func diskKey(d topology.ID) string { return string(d) }

// AddLoad applies an I/O load to a volume.
func (m *Model) AddLoad(l Load) {
	m.reads.Add(volKey(l.Volume), l.Iv, l.ReadIOPS, l.Source)
	m.writes.Add(volKey(l.Volume), l.Iv, l.WriteIOPS, l.Source)
	m.seqReads.Add(volKey(l.Volume), l.Iv, l.ReadIOPS*l.SeqFrac, l.Source)
}

// AddDiskUtilization applies direct extra utilization to a disk, e.g. the
// background traffic of a RAID rebuild.
func (m *Model) AddDiskUtilization(disk topology.ID, iv simtime.Interval, util float64, source string) {
	m.diskUtil.Add(diskKey(disk), iv, util, source)
}

// FailDisk takes a disk out of service for iv: the remaining pool disks
// absorb its share of the load.
func (m *Model) FailDisk(disk topology.ID, iv simtime.Interval, source string) {
	m.outage.Add(diskKey(disk), iv, 1, source)
}

// Truncate drops load, utilization, and outage segments that end at or
// before the horizon, returning how many were dropped. Queries at or
// after the horizon — instantaneous or window means — are bit-identical
// afterwards (see Timeline.Truncate); callers must therefore never emit
// or diagnose below the horizon again, which the evidence low-watermark
// contract guarantees.
func (m *Model) Truncate(before simtime.Time) int {
	n := m.reads.Truncate(before)
	n += m.writes.Truncate(before)
	n += m.seqReads.Truncate(before)
	n += m.diskUtil.Truncate(before)
	n += m.outage.Truncate(before)
	return n
}

// diskActive reports whether the disk is in service at t.
func (m *Model) diskActive(disk topology.ID, t simtime.Time) bool {
	return m.outage.At(diskKey(disk), t) == 0
}

// activeDisksOf returns the in-service disks of a pool at t. If every
// disk failed it returns the full set, flagged allFailed, to avoid
// division by zero; the pool is then fully saturated anyway. The outage
// state it read holds on [t, until).
func (m *Model) activeDisksOf(pool topology.ID, t simtime.Time) (disks []topology.ID, allFailed bool, until simtime.Time) {
	all := m.cfg.ChildrenOfKind(pool, topology.KindDisk)
	until = forever
	for _, d := range all {
		out, u := m.outage.AtUntil(diskKey(d), t)
		until = min(until, u)
		if out == 0 {
			disks = append(disks, d)
		}
	}
	if len(disks) == 0 {
		return all, true, until
	}
	return disks, false, until
}

// VolumeReadIOPS returns the total read IOPS applied to vol at t.
func (m *Model) VolumeReadIOPS(vol topology.ID, t simtime.Time) float64 {
	return m.reads.At(volKey(vol), t)
}

// VolumeWriteIOPS returns the total write IOPS applied to vol at t.
func (m *Model) VolumeWriteIOPS(vol topology.ID, t simtime.Time) float64 {
	return m.writes.At(volKey(vol), t)
}

// MeanReadIOPS returns the exact time-average read IOPS on vol over iv.
// Rate metrics are linear in the load segments, so monitoring-interval
// averages can be computed exactly even for bursts much shorter than the
// monitoring interval.
func (m *Model) MeanReadIOPS(vol topology.ID, iv simtime.Interval) float64 {
	return m.reads.MeanOver(volKey(vol), iv)
}

// MeanWriteIOPS returns the exact time-average write IOPS on vol over iv.
func (m *Model) MeanWriteIOPS(vol topology.ID, iv simtime.Interval) float64 {
	return m.writes.MeanOver(volKey(vol), iv)
}

// MeanSeqReadIOPS returns the exact time-average sequential-read IOPS on
// vol over iv.
func (m *Model) MeanSeqReadIOPS(vol topology.ID, iv simtime.Interval) float64 {
	return m.seqReads.MeanOver(volKey(vol), iv)
}

// MeanPoolWriteIOPS returns the time-average write IOPS landing on vol's
// backing disks: the writes of every volume in its pool. This is the
// array-site ("rank") view a storage controller reports per volume.
func (m *Model) MeanPoolWriteIOPS(vol topology.ID, iv simtime.Interval) float64 {
	pool := m.cfg.PoolOf(vol)
	if pool == "" {
		return m.MeanWriteIOPS(vol, iv)
	}
	var sum float64
	for _, v := range m.cfg.VolumesInPool(pool) {
		sum += m.writes.MeanOver(volKey(v), iv)
	}
	return sum
}

// seqFrac returns the sequential fraction of a volume's r read IOPS, of
// which seq are sequential.
func seqFrac(seq, r float64) float64 {
	if r <= 0 {
		return 0
	}
	return math.Min(1, math.Max(0, seq/r))
}

// volumeDemand returns the per-disk service demand of the pool's volumes
// at t when their load spreads across n in-service disks. Every active
// disk of a pool shares this term; only direct disk load differs per disk.
// The volume loads it read hold on [t, until).
func (m *Model) volumeDemand(pool topology.ID, t simtime.Time, n float64) (demand float64, until simtime.Time) {
	until = forever
	for _, vol := range m.cfg.VolumesInPool(pool) {
		r, ur := m.reads.AtUntil(volKey(vol), t)
		w, uw := m.writes.AtUntil(volKey(vol), t)
		sr, us := m.seqReads.AtUntil(volKey(vol), t)
		until = min(until, ur, uw, us)
		seq := seqFrac(sr, r)
		readSvc := float64(m.params.RandomReadService)*(1-seq) +
			float64(m.params.SequentialReadService)*seq
		demand += (r*readSvc + w*float64(m.params.WriteService)) / n // busy seconds per second
	}
	return demand, until
}

// poolLoad is one pool's utilization state at an instant.
type poolLoad struct {
	disks     []topology.ID // in-service disks (all of them when allFailed)
	allFailed bool
	demand    float64 // volumeDemand over the in-service disks
	util      float64 // PoolUtilization
	// until is the earliest next boundary of every timeline the state
	// was computed from: the state holds on [t, until).
	until simtime.Time
}

// poolLoad computes the pool's state at t. The shared volume-demand term
// is computed once for the pool rather than once per disk, so the cost
// is O(disks + volumes) instead of O(disks × volumes).
func (m *Model) poolLoad(pool topology.ID, t simtime.Time) poolLoad {
	var pl poolLoad
	pl.disks, pl.allFailed, pl.until = m.activeDisksOf(pool, t)
	switch {
	case len(pl.disks) == 0:
	case pl.allFailed:
		// Every disk reports utilization 1, so the mean is exactly 1.
		pl.util = 1
	default:
		n := float64(len(pl.disks))
		var u simtime.Time
		pl.demand, u = m.volumeDemand(pool, t, n)
		pl.until = min(pl.until, u)
		var sum float64
		for _, d := range pl.disks {
			du, u := m.diskUtil.AtUntil(diskKey(d), t)
			pl.until = min(pl.until, u)
			sum += pl.demand + du
		}
		pl.util = sum / n
	}
	return pl
}

// DiskUtilization returns the utilization of one disk at t: the summed
// service demand of every volume striping across it, plus direct disk
// load, adjusted for failed siblings.
func (m *Model) DiskUtilization(disk topology.ID, t simtime.Time) float64 {
	pool := m.cfg.Parent(disk)
	if pool == "" {
		return 0
	}
	return m.diskUtilization(disk, t, m.poolLoad(pool, t))
}

// diskUtilization is DiskUtilization given the state pl of the disk's
// pool at t.
func (m *Model) diskUtilization(disk topology.ID, t simtime.Time, pl poolLoad) float64 {
	if !m.diskActive(disk, t) {
		return 1
	}
	return pl.demand + m.diskUtil.At(diskKey(disk), t)
}

// PoolUtilization returns the mean utilization across a pool's in-service
// disks at t; per-disk terms match DiskUtilization exactly.
func (m *Model) PoolUtilization(pool topology.ID, t simtime.Time) float64 {
	return m.poolLoad(pool, t).util
}

// queueFactor converts utilization into the M/M/1 response multiplier
// 1/(1-rho), saturating at MaxUtil.
func (m *Model) queueFactor(util float64) float64 {
	rho := math.Min(util, m.params.MaxUtil)
	if rho < 0 {
		rho = 0
	}
	return 1 / (1 - rho)
}

// ReadResponse returns the expected response time of one read I/O against
// vol at t. sequential selects the sequential service time.
func (m *Model) ReadResponse(vol topology.ID, t simtime.Time, sequential bool) simtime.Duration {
	svc := m.params.RandomReadService
	if sequential {
		svc = m.params.SequentialReadService
	}
	rt, _ := m.response(vol, t, svc, m.poolLoad)
	return rt
}

// WriteResponse returns the expected response time of one write I/O
// against vol at t.
func (m *Model) WriteResponse(vol topology.ID, t simtime.Time) simtime.Duration {
	rt, _ := m.response(vol, t, m.params.WriteService, m.poolLoad)
	return rt
}

// response returns the response time of an I/O with service time svc
// against vol at t, with load supplying the state of vol's pool, and the
// time until which it holds.
func (m *Model) response(vol topology.ID, t simtime.Time, svc simtime.Duration, load func(topology.ID, simtime.Time) poolLoad) (simtime.Duration, simtime.Time) {
	pool := m.cfg.PoolOf(vol)
	if pool == "" {
		return svc, forever
	}
	pl := load(pool, t)
	return simtime.Duration(float64(svc) * m.queueFactor(pl.util)), pl.until
}

// ContributorsAt names the load sources active on a volume's pool at t —
// the ground truth a diagnosis should recover.
func (m *Model) ContributorsAt(vol topology.ID, t simtime.Time) []string {
	pool := m.cfg.PoolOf(vol)
	seen := make(map[string]bool)
	var out []string
	addAll := func(ss []string) {
		for _, s := range ss {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	for _, v := range m.cfg.VolumesInPool(pool) {
		addAll(m.reads.SourcesAt(volKey(v), t))
		addAll(m.writes.SourcesAt(volKey(v), t))
	}
	for _, d := range m.cfg.ChildrenOfKind(pool, topology.KindDisk) {
		addAll(m.diskUtil.SourcesAt(diskKey(d), t))
	}
	return out
}

// String implements fmt.Stringer with a compact summary.
func (m *Model) String() string {
	return fmt.Sprintf("sanperf.Model(%d volumes, %d disks)",
		len(m.cfg.All(topology.KindVolume)), len(m.cfg.All(topology.KindDisk)))
}
