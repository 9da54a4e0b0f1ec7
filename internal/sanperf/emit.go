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

// rateTable is one emission call's volume-rate table: each volume's
// exact mean read, write and sequential-read IOPS over each monitoring
// window of the call. Every rate series of the call reads it, so each
// (volume, window) mean is computed once, by one Timeline.MeansOver per
// volume and timeline, instead of once per series reading it.
type rateTable struct {
	windows []simtime.Interval
	row     map[topology.ID]int
	// Row-major: volume row r, window i at r*len(windows)+i.
	read, write, seq []float64
}

// rateTable computes the table of vols over windows.
func (m *Model) rateTable(vols []topology.ID, windows []simtime.Interval) *rateTable {
	nw, n := len(windows), len(vols)*len(windows)
	buf := make([]float64, 3*n)
	rt := &rateTable{
		windows: windows,
		row:     make(map[topology.ID]int, len(vols)),
		read:    buf[:n:n],
		write:   buf[n : 2*n : 2*n],
		seq:     buf[2*n:],
	}
	for r, vol := range vols {
		rt.row[vol] = r
		m.reads.MeansOver(volKey(vol), windows, rt.read[r*nw:])
		m.writes.MeansOver(volKey(vol), windows, rt.write[r*nw:])
		m.seqReads.MeansOver(volKey(vol), windows, rt.seq[r*nw:])
	}
	return rt
}

// rates returns the per-window read, write and sequential-read means of
// table row r.
func (rt *rateTable) rates(r int) (read, write, seq []float64) {
	nw := len(rt.windows)
	lo, hi := r*nw, (r+1)*nw
	return rt.read[lo:hi], rt.write[lo:hi], rt.seq[lo:hi]
}

// bytesRead is a volume's read traffic in KB/s given its mean read and
// sequential-read IOPS.
func bytesRead(read, seq float64) float64 {
	rnd := read - seq
	return seq*sequentialIOKB + rnd*randomIOKB
}

// poolRates holds per-window sums over one pool's volumes, each
// accumulated in volume order exactly as a per-window loop over the
// pool would.
type poolRates struct {
	read, write []float64 // Σ read, Σ write
	total       []float64 // Σ (read + write)
	// active is the pool's in-service disk count at each window's
	// midpoint; nil until a disk series asks for it.
	active []float64
}

// emitMemo caches the intermediates of one EmitMetrics call. Every
// series samples the same time grid, so without the memo each pool
// state is recomputed once per volume or disk series and each pool sum
// once per series reading it. The memoized values are the Model's own
// computations, so they replay the exact values the unmemoized queries
// would produce. The memo lives for one EmitMetrics call on one
// goroutine (the Sampler contract is already single-goroutine), so no
// locking.
type emitMemo struct {
	m     *Model
	rates *rateTable
	pools map[topology.ID]*poolRates
	load  map[poolAt]poolLoad
}

func newEmitMemo(m *Model, rates *rateTable) *emitMemo {
	return &emitMemo{
		m:     m,
		rates: rates,
		pools: make(map[topology.ID]*poolRates),
		load:  make(map[poolAt]poolLoad),
	}
}

// pool returns the per-window sums over pool's volumes.
func (em *emitMemo) pool(pool topology.ID) *poolRates {
	if pr, ok := em.pools[pool]; ok {
		return pr
	}
	nw := len(em.rates.windows)
	buf := make([]float64, 3*nw)
	pr := &poolRates{read: buf[:nw:nw], write: buf[nw : 2*nw : 2*nw], total: buf[2*nw:]}
	for _, vol := range em.m.volumesIn(pool) {
		read, write, _ := em.rates.rates(em.rates.row[vol])
		for i := range nw {
			pr.read[i] += read[i]
			pr.write[i] += write[i]
			pr.total[i] += read[i] + write[i]
		}
	}
	em.pools[pool] = pr
	return pr
}

// activeDisks returns pool's in-service disk counts per window, at each
// window's midpoint.
func (em *emitMemo) activeDisks(pool topology.ID) []float64 {
	pr := em.pool(pool)
	if pr.active == nil {
		pr.active = make([]float64, len(em.rates.windows))
		for i, w := range em.rates.windows {
			disks, _, _ := em.m.activeDisksOf(pool, w.Start.Add(w.Length()/2))
			pr.active[i] = float64(len(disks))
		}
	}
	return pr.active
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
	cfg, lay := m.cfg, m.structure()
	windows := sp.Windows(iv)
	vols := lay.volumes
	em := newEmitMemo(m, m.rateTable(vols, windows))
	for r, vol := range vols {
		comp := string(vol)
		read, write, seq := em.rates.rates(r)
		// writeIO is reported at the array-site level, as the DS6000's
		// rank counters do: every write landing on the volume's backing
		// disks counts, including other volumes of the pool. This is why
		// the paper's Table 2 shows V1's writeIO anomalous under V'
		// contention although the database itself writes nothing to V1.
		poolWrite := write
		if pool := cfg.PoolOf(vol); pool != "" {
			poolWrite = em.pool(pool).write
		}
		sp.RecordMeans(store, comp, metrics.VolReadIO, iv, func(i int) float64 { return read[i] })
		sp.RecordMeans(store, comp, metrics.VolWriteIO, iv, func(i int) float64 { return poolWrite[i] })
		sp.RecordMeans(store, comp, metrics.StContaminatingWr, iv, func(i int) float64 {
			return poolWrite[i] - write[i]
		})
		sp.Record(store, comp, metrics.VolReadTime, iv, func(t simtime.Time) (float64, simtime.Time) {
			rt, until := m.response(vol, t, m.params.RandomReadService, em.poolLoad)
			return float64(rt) * 1000, until // ms
		})
		sp.Record(store, comp, metrics.VolWriteTime, iv, func(t simtime.Time) (float64, simtime.Time) {
			rt, until := m.response(vol, t, m.params.WriteService, em.poolLoad)
			return float64(rt) * 1000, until // ms
		})
		sp.RecordMeans(store, comp, metrics.StBytesRead, iv, func(i int) float64 {
			return bytesRead(read[i], seq[i]) // KB/s
		})
		sp.RecordMeans(store, comp, metrics.StBytesWritten, iv, func(i int) float64 {
			return write[i] * randomIOKB
		})
		sp.RecordMeans(store, comp, metrics.StSeqReadRequests, iv, func(i int) float64 { return seq[i] })
		sp.RecordMeans(store, comp, metrics.StTotalIOs, iv, func(i int) float64 {
			return read[i] + write[i]
		})
	}
	readShare := make([]float64, len(windows))
	writeShare := make([]float64, len(windows))
	for _, disk := range lay.disks {
		comp := string(disk)
		pool := cfg.Parent(disk)
		pr, active := em.pool(pool), em.activeDisks(pool)
		for i, w := range windows {
			readShare[i], writeShare[i] = 0, 0
			if n := active[i]; n != 0 && m.diskActive(disk, w.Start.Add(w.Length()/2)) {
				readShare[i], writeShare[i] = pr.read[i]/n, pr.write[i]/n
			}
		}
		sp.RecordMeans(store, comp, metrics.StPhysReadOps, iv, func(i int) float64 { return readShare[i] })
		sp.RecordMeans(store, comp, metrics.StPhysWriteOps, iv, func(i int) float64 { return writeShare[i] })
		sp.Record(store, comp, metrics.StPhysReadTime, iv, em.physTime(disk, m.params.RandomReadService))
		sp.Record(store, comp, metrics.StPhysWriteTime, iv, em.physTime(disk, m.params.WriteService))
		sp.RecordMeans(store, comp, metrics.StTotalIOs, iv, func(i int) float64 {
			return readShare[i] + writeShare[i]
		})
	}
	for _, pool := range lay.pools {
		total := em.pool(pool).total
		sp.RecordMeans(store, string(pool), metrics.StTotalIOs, iv, func(i int) float64 { return total[i] })
	}
	total := make([]float64, len(windows))
	for _, ss := range lay.subsystems {
		// One running sum across the subsystem's pools, in pool then
		// volume order: not the sum of the pool totals.
		clear(total)
		for _, pool := range lay.subsystemPools[ss] {
			for _, vol := range m.volumesIn(pool) {
				read, write, _ := em.rates.rates(em.rates.row[vol])
				for i := range total {
					total[i] += read[i] + write[i]
				}
			}
		}
		sp.RecordMeans(store, string(ss), metrics.StTotalIOs, iv, func(i int) float64 { return total[i] })
	}
}

// portRoutes is one server's fabric-route table: every FC port on a
// route from the server to a volume mapped to it, sorted, with the
// volumes routed through each in volume order. It is valid while the
// configuration's generation is gen.
type portRoutes struct {
	server topology.ID
	gen    uint64
	ports  []topology.ID
	vols   [][]topology.ID // vols[i] route through ports[i]
	routed []topology.ID   // every volume with a route, sorted
}

// portRoutes returns the server's route table, computing it only when
// the server or the configuration changed since the last call. Routes
// are a function of the configuration alone, so the cached table is the
// one a fresh computation would build.
func (m *Model) portRoutes(server topology.ID) *portRoutes {
	cfg := m.cfg
	if pr := m.routes.Load(); pr != nil && pr.server == server && pr.gen == cfg.Generation() {
		return pr
	}
	pr := &portRoutes{server: server, gen: cfg.Generation()}
	perPort := make(map[topology.ID][]topology.ID) // port -> volumes routed through it
	for _, vol := range m.structure().volumes {
		if !cfg.LUNVisible(vol, server) {
			continue
		}
		route, err := cfg.FabricRoute(server, vol)
		if err != nil {
			continue
		}
		pr.routed = append(pr.routed, vol)
		for _, id := range route {
			if comp, ok := cfg.Get(id); ok && comp.Kind == topology.KindPort {
				perPort[id] = append(perPort[id], vol)
			}
		}
	}
	for port := range perPort {
		pr.ports = append(pr.ports, port)
	}
	sort.Slice(pr.ports, func(i, j int) bool { return pr.ports[i] < pr.ports[j] })
	for _, port := range pr.ports {
		pr.vols = append(pr.vols, perPort[port])
	}
	m.routes.Store(pr)
	return pr
}

// EmitNetworkMetrics records FC-port traffic series for the ports on the
// route from server to each volume it is mapped to. Traffic is derived
// from the volumes' byte rates; error counters stay at zero unless faults
// add them elsewhere.
func (m *Model) EmitNetworkMetrics(store *metrics.Store, sp *metrics.Sampler, iv simtime.Interval, server topology.ID) {
	routes := m.portRoutes(server)
	windows := sp.Windows(iv)
	rt := m.rateTable(routes.routed, windows)
	traffic := make([]float64, len(windows))
	for p, port := range routes.ports {
		comp := string(port)
		// One traffic sum per window, shared by the port's three series.
		clear(traffic)
		for _, vol := range routes.vols[p] {
			read, write, seq := rt.rates(rt.row[vol])
			for i := range traffic {
				traffic[i] += bytesRead(read[i], seq[i])
				traffic[i] += write[i] * randomIOKB
			}
		}
		sp.RecordMeans(store, comp, metrics.NetBytesTransmitted, iv, func(i int) float64 { return traffic[i] })
		sp.RecordMeans(store, comp, metrics.NetBytesReceived, iv, func(i int) float64 { return traffic[i] })
		sp.RecordMeans(store, comp, metrics.NetPacketsTransmitted, iv, func(i int) float64 {
			return traffic[i] / 2 // 2KB frames
		})
		sp.Record(store, comp, metrics.NetErrorFrames, iv, metrics.Constant(0))
		sp.Record(store, comp, metrics.NetCRCErrors, iv, metrics.Constant(0))
	}
}
