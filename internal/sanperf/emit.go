package sanperf

import (
	"sort"

	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// I/O transfer sizes used to derive byte-rate metrics from IOPS.
const (
	randomIOKB     = 16
	sequentialIOKB = 64
)

// poolAt keys a pool-level memo entry at one sampling instant.
type poolAt struct {
	pool topology.ID
	t    simtime.Time
}

// poolWin keys a pool-level memo entry for one averaging window.
type poolWin struct {
	pool       topology.ID
	start, end simtime.Time
}

// activePool is a memoized activeDisksOf result.
type activePool struct {
	disks     []topology.ID
	allFailed bool
}

// poolRW holds a pool's volume-summed mean IOPS over one window.
type poolRW struct {
	read, write float64
}

// emitMemo caches pool-level intermediates across the series of one
// EmitMetrics call. Every series samples the same time grid, so without
// the memo each pool state is recomputed once per volume or disk series
// and each pool's IOPS sums once per series reading them. The memoized
// values are the Model's own computations, so they replay the exact
// values the unmemoized queries would produce. The memo lives for one
// EmitMetrics call on one goroutine (the Sampler contract is already
// single-goroutine), so no locking.
type emitMemo struct {
	m      *Model
	active map[poolAt]activePool
	load   map[poolAt]poolLoad
	rw     map[poolWin]poolRW // per-volume MeanOver sums
}

func newEmitMemo(m *Model) *emitMemo {
	return &emitMemo{
		m:      m,
		active: make(map[poolAt]activePool),
		load:   make(map[poolAt]poolLoad),
		rw:     make(map[poolWin]poolRW),
	}
}

func (em *emitMemo) activeDisks(pool topology.ID, t simtime.Time) activePool {
	k := poolAt{pool, t}
	if a, ok := em.active[k]; ok {
		return a
	}
	disks, allFailed, _ := em.m.activeDisksOf(pool, t)
	a := activePool{disks, allFailed}
	em.active[k] = a
	return a
}

// poolLoad memoizes Model.poolLoad. The state holds on [t, until), so
// every volume response-time and disk phys-time series of the pool
// shares one evaluation per change point.
func (em *emitMemo) poolLoad(pool topology.ID, t simtime.Time) poolLoad {
	k := poolAt{pool, t}
	if pl, ok := em.load[k]; ok {
		return pl
	}
	pl := em.m.poolLoad(pool, t)
	em.load[k] = pl
	return pl
}

// physTime returns the true-value function of a disk's physical I/O
// time for service time svc, in ms.
func (em *emitMemo) physTime(disk topology.ID, svc simtime.Duration) metrics.TrueValueFunc {
	m := em.m
	pool := m.cfg.Parent(disk)
	if pool == "" {
		return metrics.Constant(float64(svc) * m.queueFactor(0) * 1000)
	}
	return func(t simtime.Time) (float64, simtime.Time) {
		pl := em.poolLoad(pool, t)
		return float64(svc) * m.queueFactor(m.diskUtilization(disk, t, pl)) * 1000, pl.until
	}
}

// poolIOPS sums the pool volumes' mean read and write IOPS over w, each
// accumulated in volume order exactly as the per-metric loops did.
func (em *emitMemo) poolIOPS(pool topology.ID, w simtime.Interval) poolRW {
	k := poolWin{pool, w.Start, w.End}
	if v, ok := em.rw[k]; ok {
		return v
	}
	var v poolRW
	m := em.m
	for _, vol := range m.cfg.VolumesInPool(pool) {
		v.read += m.reads.MeanOver(volKey(vol), w)
		v.write += m.writes.MeanOver(volKey(vol), w)
	}
	em.rw[k] = v
	return v
}

// meanPoolWriteIOPS mirrors Model.MeanPoolWriteIOPS.
func (em *emitMemo) meanPoolWriteIOPS(vol topology.ID, w simtime.Interval) float64 {
	pool := em.m.cfg.PoolOf(vol)
	if pool == "" {
		return em.m.MeanWriteIOPS(vol, w)
	}
	return em.poolIOPS(pool, w).write
}

// EmitMetrics samples the model's ground-truth behaviour over iv and
// records the monitoring series a storage management tool would collect:
// per-volume rates and response times (including the writeIO/writeTime
// metrics of the paper's Table 2), per-disk physical I/O, and per-pool and
// per-subsystem aggregates.
//
// Rate metrics (IOPS, bytes) use exact interval averages, so even bursts
// much shorter than the monitoring interval contribute their share —
// smeared, exactly as the paper's "noisy data" challenge describes.
// Response-time metrics are integrated numerically, so sub-interval blips
// can be missed entirely, another realistic monitoring inaccuracy.
func (m *Model) EmitMetrics(store *metrics.Store, sp *metrics.Sampler, iv simtime.Interval) {
	cfg := m.cfg
	em := newEmitMemo(m)
	for _, vol := range cfg.All(topology.KindVolume) {
		vol := vol
		comp := string(vol)
		sp.RecordWindowMean(store, comp, metrics.VolReadIO, iv, func(w simtime.Interval) float64 {
			return m.MeanReadIOPS(vol, w)
		})
		// writeIO is reported at the array-site level, as the DS6000's
		// rank counters do: every write landing on the volume's backing
		// disks counts, including other volumes of the pool. This is why
		// the paper's Table 2 shows V1's writeIO anomalous under V'
		// contention although the database itself writes nothing to V1.
		sp.RecordWindowMean(store, comp, metrics.VolWriteIO, iv, func(w simtime.Interval) float64 {
			return em.meanPoolWriteIOPS(vol, w)
		})
		sp.RecordWindowMean(store, comp, metrics.StContaminatingWr, iv, func(w simtime.Interval) float64 {
			return em.meanPoolWriteIOPS(vol, w) - m.MeanWriteIOPS(vol, w)
		})
		sp.Record(store, comp, metrics.VolReadTime, iv, func(t simtime.Time) (float64, simtime.Time) {
			rt, until := m.response(vol, t, m.params.RandomReadService, em.poolLoad)
			return float64(rt) * 1000, until // ms
		})
		sp.Record(store, comp, metrics.VolWriteTime, iv, func(t simtime.Time) (float64, simtime.Time) {
			rt, until := m.response(vol, t, m.params.WriteService, em.poolLoad)
			return float64(rt) * 1000, until // ms
		})
		sp.RecordWindowMean(store, comp, metrics.StBytesRead, iv, func(w simtime.Interval) float64 {
			seq := m.MeanSeqReadIOPS(vol, w)
			rnd := m.MeanReadIOPS(vol, w) - seq
			return seq*sequentialIOKB + rnd*randomIOKB // KB/s
		})
		sp.RecordWindowMean(store, comp, metrics.StBytesWritten, iv, func(w simtime.Interval) float64 {
			return m.MeanWriteIOPS(vol, w) * randomIOKB
		})
		sp.RecordWindowMean(store, comp, metrics.StSeqReadRequests, iv, func(w simtime.Interval) float64 {
			return m.MeanSeqReadIOPS(vol, w)
		})
		sp.RecordWindowMean(store, comp, metrics.StTotalIOs, iv, func(w simtime.Interval) float64 {
			return m.MeanReadIOPS(vol, w) + m.MeanWriteIOPS(vol, w)
		})
	}
	for _, disk := range cfg.All(topology.KindDisk) {
		disk := disk
		comp := string(disk)
		pool := cfg.Parent(disk)
		share := func(w simtime.Interval, read bool) float64 {
			mid := w.Start.Add(w.Length() / 2)
			n := float64(len(em.activeDisks(pool, mid).disks))
			if n == 0 || !m.diskActive(disk, mid) {
				return 0
			}
			rw := em.poolIOPS(pool, w)
			if read {
				return rw.read / n
			}
			return rw.write / n
		}
		sp.RecordWindowMean(store, comp, metrics.StPhysReadOps, iv, func(w simtime.Interval) float64 {
			return share(w, true)
		})
		sp.RecordWindowMean(store, comp, metrics.StPhysWriteOps, iv, func(w simtime.Interval) float64 {
			return share(w, false)
		})
		sp.Record(store, comp, metrics.StPhysReadTime, iv, em.physTime(disk, m.params.RandomReadService))
		sp.Record(store, comp, metrics.StPhysWriteTime, iv, em.physTime(disk, m.params.WriteService))
		sp.RecordWindowMean(store, comp, metrics.StTotalIOs, iv, func(w simtime.Interval) float64 {
			return share(w, true) + share(w, false)
		})
	}
	for _, pool := range cfg.All(topology.KindPool) {
		pool := pool
		comp := string(pool)
		sp.RecordWindowMean(store, comp, metrics.StTotalIOs, iv, func(w simtime.Interval) float64 {
			var sum float64
			for _, v := range cfg.VolumesInPool(pool) {
				sum += m.MeanReadIOPS(v, w) + m.MeanWriteIOPS(v, w)
			}
			return sum
		})
	}
	for _, ss := range cfg.All(topology.KindSubsystem) {
		ss := ss
		comp := string(ss)
		sp.RecordWindowMean(store, comp, metrics.StTotalIOs, iv, func(w simtime.Interval) float64 {
			var sum float64
			for _, pool := range cfg.ChildrenOfKind(ss, topology.KindPool) {
				for _, v := range cfg.VolumesInPool(pool) {
					sum += m.MeanReadIOPS(v, w) + m.MeanWriteIOPS(v, w)
				}
			}
			return sum
		})
	}
}

// EmitNetworkMetrics records FC-port traffic series for the ports on the
// route from server to each volume it is mapped to. Traffic is derived
// from the volumes' byte rates; error counters stay at zero unless faults
// add them elsewhere.
func (m *Model) EmitNetworkMetrics(store *metrics.Store, sp *metrics.Sampler, iv simtime.Interval, server topology.ID) {
	cfg := m.cfg
	perPort := make(map[topology.ID][]topology.ID) // port -> volumes routed through it
	for _, vol := range cfg.All(topology.KindVolume) {
		if !cfg.LUNVisible(vol, server) {
			continue
		}
		route, err := cfg.FabricRoute(server, vol)
		if err != nil {
			continue
		}
		for _, id := range route {
			if comp, ok := cfg.Get(id); ok && comp.Kind == topology.KindPort {
				perPort[id] = append(perPort[id], vol)
			}
		}
	}
	ports := make([]topology.ID, 0, len(perPort))
	for port := range perPort {
		ports = append(ports, port)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	for _, port := range ports {
		port, vols := port, perPort[port]
		comp := string(port)
		traffic := func(w simtime.Interval) float64 {
			var kb float64
			for _, v := range vols {
				seq := m.MeanSeqReadIOPS(v, w)
				rnd := m.MeanReadIOPS(v, w) - seq
				kb += seq*sequentialIOKB + rnd*randomIOKB
				kb += m.MeanWriteIOPS(v, w) * randomIOKB
			}
			return kb
		}
		sp.RecordWindowMean(store, comp, metrics.NetBytesTransmitted, iv, traffic)
		sp.RecordWindowMean(store, comp, metrics.NetBytesReceived, iv, traffic)
		sp.RecordWindowMean(store, comp, metrics.NetPacketsTransmitted, iv, func(w simtime.Interval) float64 {
			return traffic(w) / 2 // 2KB frames
		})
		sp.Record(store, comp, metrics.NetErrorFrames, iv, metrics.Constant(0))
		sp.Record(store, comp, metrics.NetCRCErrors, iv, metrics.Constant(0))
	}
}
