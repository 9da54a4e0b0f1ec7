package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"diads/internal/api"
	"diads/internal/exec"
	"diads/internal/experiments"
	"diads/internal/metrics"
	"diads/internal/service"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// The ingest workload drives api.Node over loopback HTTP as monitoring
// agents would: the evidence of ingestTenants tenants (each the online
// SAN-misconfiguration scenario over ingestRuns Q2 runs) is simulated
// and serialized in set-up, then posted on a fixed schedule at a fixed
// offered rate, open loop, by ingestConns client goroutines over at most
// ingestConns connections, with dashboard incident reads interleaved.
// Each repetition ends with Node.Quiesce. It is the write-heavy use of
// metrics.Store and the only path through api; watermarks release the
// diagnoses gradually and the APG cache is hot.
const (
	ingestTenants  = 8
	ingestRuns     = 48
	ingestBatch    = 1024 // samples per POST
	ingestRunBatch = 16   // runs per POST
	ingestConns    = 2
	// ingestWorkers sizes the node's diagnosis pool. One worker leaves a
	// core to the HTTP handlers, so the POST tail measures the ingest
	// path rather than chance overlaps of two diagnoses on both cores;
	// diagnoses that fall behind show as drain time in wall_s.
	ingestWorkers = 1
	// ingestPollEvery interleaves one dashboard GET per this many POSTs.
	ingestPollEvery = 8
	// ingestRate is the offered load in samples per second: about half
	// of what one closed-loop client saturates the node at on a 2-core
	// x86-64 box (200-260 k samples/s).
	ingestRate = 110_000
	// ingestSetups is how many times set-up generates the evidence.
	ingestSetups = 3
	// ingestSeedStride separates the tenants' simulation seeds.
	ingestSeedStride = 1_000_003
	// ingestStagger offsets consecutive tenants' timelines: an eighth of
	// a tenant's 24-hour horizon.
	ingestStagger = 3 * time.Hour
	// ingestRetryWait is the client's pause before retrying a 429.
	ingestRetryWait = time.Millisecond
)

// ingestItem is one scheduled request.
type ingestItem struct {
	tenant int
	path   string // POST path, or the GET URL path+query for polls
	get    bool
	body   []byte
}

type ingestWorkload struct {
	seed     int64
	items    []ingestItem
	due      []time.Duration
	samples  int
	testbeds []*testbed.Testbed

	// Traced-repetition accumulators.
	reps                        int
	query, late, drain          dist
	depthMax, bytes             float64
	svc                         serviceTally
	handlerN                    map[string]int64
	handlerS                    map[string]float64
	observed, events, truncated float64
}

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

func (w *ingestWorkload) setup(seed int64) ([]time.Duration, error) {
	w.seed = seed
	w.handlerN = map[string]int64{}
	w.handlerS = map[string]float64{}
	var times []time.Duration
	var first string
	for i := 0; i < ingestSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.generate(seed); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
		parts := make([]string, len(w.items))
		for j, it := range w.items {
			parts[j] = it.path + string(it.body)
		}
		d := reportDigest(parts...)
		if first == "" {
			first = d
		} else if d != first {
			return nil, errors.New("evidence generation is not deterministic")
		}
	}
	// Warm-up: one discarded repetition.
	if _, err := w.rep(false); err != nil {
		return nil, err
	}
	return times, nil
}

// generate simulates every tenant and serializes its evidence as its
// agents would post it, in simulated-time order: the misconfiguration's
// configuration events when they happen, runs in batches as they
// complete, samples in batches as they are monitored, the last batch
// with a watermark past every read window. The tenants' timelines are
// staggered by ingestStagger each — tenants do not run their batch
// windows in phase — and merged into one schedule by staggered time, so
// their diagnoses release across the schedule instead of all at once.
func (w *ingestWorkload) generate(seed int64) error {
	type keyed struct {
		key float64 // staggered simulated time the item is posted at
		it  ingestItem
	}
	var all []keyed
	w.testbeds = w.testbeds[:0]
	w.samples = 0
	for t := 0; t < ingestTenants; t++ {
		env, err := experiments.BuildOnline(experiments.OnlineSpec{
			Seed: seed + int64(t)*ingestSeedStride, Runs: ingestRuns,
		})
		if err != nil {
			return err
		}
		tb := env.Testbed
		tb.Engine.OnRunComplete = nil
		if err := tb.Simulate(); err != nil {
			return err
		}
		w.testbeds = append(w.testbeds, tb)
		name := tenantName(t)
		shift := float64(t) * ingestStagger.Seconds()
		// Keys only grow within a tenant, so the merge keeps each
		// tenant's posts in order.
		last := math.Inf(-1)
		add := func(at float64, path string, v any) error {
			body, err := json.Marshal(v)
			if err != nil {
				return err
			}
			last = max(last, at+shift)
			all = append(all, keyed{last, ingestItem{tenant: t, path: path, body: body}})
			return nil
		}

		var samples []api.WireSample
		for _, k := range tb.Store.Keys() {
			for _, s := range tb.Store.Series(k.Component, k.Metric) {
				samples = append(samples, api.WireSampleOf(k.Component, k.Metric, s))
			}
		}
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].T < samples[j].T })
		w.samples += len(samples)
		// Past every read window: the horizon plus two monitoring
		// intervals, as the httpingest example posts it.
		final := float64(env.Horizon.Add(2 * metrics.DefaultMonitorInterval))
		runs := make([]api.WireRun, 0, len(tb.Runs))
		for _, rec := range tb.Runs {
			runs = append(runs, api.WireRunOf(rec))
		}
		onset := float64(env.Onset)
		events := []api.WireEvent{
			{T: onset, Kind: "VolumeCreated", Subject: "vol-Vp", Detail: "volume V' created in pool-P1",
				Pool: string(testbed.PoolP1), Name: "V'", SizeGB: 80},
			{T: onset + 30, Kind: "ZoneCreated", Subject: "vol-Vp", Detail: "zoning for host srv-app1"},
			{T: onset + 60, Kind: "LUNMapped", Subject: "vol-Vp", Detail: "LUN mapped to host srv-app1",
				Server: string(testbed.ServerApp1)},
			{T: onset + 120, Kind: "WorkloadStarted", Subject: "vol-Vp", Detail: "external workload started on V'"},
		}

		// Merge the tenant's three streams by the time each batch is
		// complete; the watermark batch goes last.
		ev, ri, si := false, 0, 0
		for ri < len(runs) || si < len(samples) {
			runAt, sampleAt := math.Inf(1), math.Inf(1)
			if ri < len(runs) {
				runAt = runs[min(ri+ingestRunBatch, len(runs))-1].Stop
			}
			if si < len(samples) {
				sampleAt = samples[min(si+ingestBatch, len(samples))-1].T
			}
			var err error
			switch {
			case !ev && events[len(events)-1].T <= min(runAt, sampleAt):
				ev = true
				err = add(events[len(events)-1].T, "/v1/ingest/events",
					api.EventBatch{Tenant: name, Instance: "db-1", Events: events})
			case runAt <= sampleAt || si+ingestBatch >= len(samples) && ri < len(runs):
				end := min(ri+ingestRunBatch, len(runs))
				err = add(runAt, "/v1/ingest/runs", api.RunBatch{Tenant: name, Instance: "db-1", Runs: runs[ri:end]})
				ri = end
			default:
				end := min(si+ingestBatch, len(samples))
				b := api.SampleBatch{Tenant: name, Instance: "db-1", Samples: samples[si:end]}
				if end == len(samples) {
					b.Watermark = &final
				}
				err = add(sampleAt, "/v1/ingest/samples", b)
				si = end
			}
			if err != nil {
				return err
			}
		}
		if !ev {
			return fmt.Errorf("tenant %s: fault onset past its evidence", name)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].key < all[j].key })

	w.items = w.items[:0]
	for i, k := range all {
		w.items = append(w.items, k.it)
		if (i+1)%ingestPollEvery == 0 {
			pt := (i / ingestPollEvery) % ingestTenants
			w.items = append(w.items, ingestItem{
				tenant: pt, get: true, path: "/v1/incidents?tenant=" + tenantName(pt),
			})
		}
	}
	span := time.Duration(float64(w.samples) / ingestRate * float64(time.Second))
	w.due = evenSchedule(len(w.items), span/time.Duration(len(w.items)))
	return nil
}

// ingestClient is one generator goroutine's tally.
type ingestClient struct {
	timings           []sendTiming
	get               []bool
	attempted, failed int
	depthMax          int
	bytes             int
}

func (w *ingestWorkload) rep(traced bool) (*repResult, error) {
	node := api.New(api.Config{Seed: w.seed, Service: service.Config{Workers: ingestWorkers}})
	defer node.Shutdown()
	lat := &latencyLog{}
	node.Service().Self = lat
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	tr := &http.Transport{MaxConnsPerHost: ingestConns, MaxIdleConnsPerHost: ingestConns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	// Each tenant belongs to one generator, so its batches arrive in
	// order; the generators share the schedule's clock.
	var idx [ingestConns][]int
	for i, it := range w.items {
		g := it.tenant % ingestConns
		idx[g] = append(idx[g], i)
	}
	before, trunc0 := takeSnapshot(), metrics.TruncatedTotal()
	clients := make([]ingestClient, ingestConns)
	var wg sync.WaitGroup
	m := startMeter()
	start := time.Now()
	for g := 0; g < ingestConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &clients[g]
			due := make([]time.Duration, len(idx[g]))
			for j, i := range idx[g] {
				due[j] = w.due[i]
				c.get = append(c.get, w.items[i].get)
			}
			c.timings = openLoop(wallClock{}, start, due, func(j int) {
				w.send(client, srv.URL, &w.items[idx[g][j]], c)
			})
		}(g)
	}
	wg.Wait()
	q0 := time.Now()
	if err := node.Quiesce(); err != nil {
		return nil, err
	}
	drain := time.Since(q0)
	ph := m.end()

	r := &repResult{phase: ph}
	var query, late dist
	for _, c := range clients {
		r.attempted += c.attempted
		r.failed += c.failed
		for j, t := range c.timings {
			late.add(ms(t.late))
			if c.get[j] {
				query.add(ms(t.latency))
			} else {
				r.lat = append(r.lat, ms(t.latency))
			}
		}
	}
	after := takeSnapshot()
	d := snapDiff{before, after}
	// Items the intake worker could not apply, and diagnoses the pool
	// failed or shed, are failures too.
	st := node.Service().Stats()
	r.attempted += int(st.Submitted)
	r.failed += int(d.counter("diads_api_ingest_errors_total", nil)) + int(st.Failed+st.Rejected)

	// Every tenant must end with its SAN misconfiguration incident.
	bodies := make([]string, ingestTenants)
	for t := range bodies {
		r.attempted++
		body, ok := incidentsOf(client, srv.URL, tenantName(t))
		bodies[t] = body
		if !ok {
			r.failed++
			r.wrong++
		}
	}
	r.digest = reportDigest(bodies...)

	if traced {
		w.reps++
		w.query.add(query.v...)
		w.late.add(late.v...)
		w.drain.add(ms(drain))
		for _, c := range clients {
			w.depthMax = max(w.depthMax, float64(c.depthMax))
			w.bytes += float64(c.bytes)
		}
		w.svc.add(st, d, lat.take())
		for _, route := range []string{"ingest_samples", "ingest_runs", "ingest_events"} {
			n, s := d.hist("diads_api_request_seconds", map[string]string{"route": route})
			w.handlerN[route] += n
			w.handlerS[route] += s
		}
		w.observed += d.counter("diads_monitor_runs_observed_total", nil)
		w.events += d.counter("diads_monitor_slowdown_events_total", nil)
		w.truncated += float64(metrics.TruncatedTotal() - trunc0)
	}
	return r, nil
}

// send issues one scheduled request, retrying a refused POST until the
// node accepts it. Every attempt counts; a 429 is a failed attempt.
func (w *ingestWorkload) send(client *http.Client, base string, it *ingestItem, c *ingestClient) {
	if !it.get {
		c.bytes += len(it.body)
	}
	for {
		var resp *http.Response
		var err error
		if it.get {
			resp, err = client.Get(base + it.path)
		} else {
			resp, err = client.Post(base+it.path, "application/json", bytes.NewReader(it.body))
		}
		c.attempted++
		if err != nil {
			c.failed++
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			c.failed++
			return
		case resp.StatusCode == http.StatusTooManyRequests:
			c.failed++
			time.Sleep(ingestRetryWait)
			continue
		case it.get && resp.StatusCode == http.StatusOK:
			return
		case !it.get && resp.StatusCode == http.StatusAccepted:
			var reply api.IngestReply
			if json.Unmarshal(body, &reply) != nil {
				c.failed++
			}
			c.depthMax = max(c.depthMax, reply.QueueDepth)
			return
		default:
			c.failed++
			return
		}
	}
}

// incidentsOf reads the tenant's incidents and reports whether they
// include the SAN misconfiguration its evidence shows.
func incidentsOf(client *http.Client, base, tenant string) (string, bool) {
	resp, err := client.Get(base + "/v1/incidents?tenant=" + tenant)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return string(body), false
	}
	var list struct {
		Incidents []api.IncidentView `json:"incidents"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return string(body), false
	}
	for _, inc := range list.Incidents {
		if inc.Kind == symptoms.CauseSANMisconfig && inc.Subject == string(testbed.VolV1) {
			return string(body), true
		}
	}
	return string(body), false
}

func (w *ingestWorkload) layers(time.Duration) (map[string]float64, error) {
	if w.reps == 0 {
		return nil, errors.New("no traced repetitions")
	}
	reps := float64(w.reps)
	out := map[string]float64{
		"metrics.samples_appended":  float64(w.samples),
		"metrics.samples_truncated": w.truncated / reps,
		"monitor.runs_observed":     w.observed / reps,
		"monitor.events":            w.events / reps,
		"api.intake_depth_max":      w.depthMax,
		"api.drain_ms":              w.drain.median(),
		"api.bytes_posted":          w.bytes / reps,
		"api.query_p50_ms":          w.query.median(),
		"bench.generator_late_ms":   w.late.quantile(0.99),
	}
	for route, n := range w.handlerN {
		out["api.handler_ms."+route] = ratio(w.handlerS[route]*1e3, float64(n))
	}
	w.svc.report(out, reps)

	if _, err := simulateProbe(experiments.OnlineSpec{Seed: w.seed, Runs: ingestRuns}, out); err != nil {
		return nil, err
	}
	var srcs []storeSource
	var streams [][]*exec.RunRecord
	for _, tb := range w.testbeds {
		srcs = append(srcs, storeSource{tb.Store, tb.Runs})
		streams = append(streams, tb.Runs)
	}
	if err := storeProbe(srcs, out); err != nil {
		return nil, err
	}
	monitorProbe(streams, out)
	return out, nil
}
