package main

import (
	"sync"
	"time"

	"diads/internal/service"
)

// latencyLog is a service.SelfObserver recording every diagnosis's wall
// time and when it completed.
type latencyLog struct {
	mu   sync.Mutex
	ms   []float64
	done []time.Time
}

func (l *latencyLog) ObserveDiagnosis(_ string, wall time.Duration) {
	now := time.Now()
	l.mu.Lock()
	l.ms = append(l.ms, ms(wall))
	l.done = append(l.done, now)
	l.mu.Unlock()
}

// take returns the diagnoses' wall times in ms and clears the log.
func (l *latencyLog) take() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.ms
	l.ms, l.done = nil, nil
	return out
}

// since returns, in ms, how long after start each diagnosis completed.
func (l *latencyLog) since(start time.Time) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.done))
	for i, t := range l.done {
		out[i] = ms(t.Sub(start))
	}
	return out
}

// serviceTally accumulates the diagnosis service's layer numbers over
// traced repetitions: its lifetime Stats, the queue-wait and per-module
// wall-time histogram deltas, and the per-diagnosis wall times its
// SelfObserver saw.
type serviceTally struct {
	diagMs                                           dist
	completed, deduped, apgHit, apgAll, sdHit, sdAll float64
	queueWaitN                                       int64
	queueWaitS                                       float64
	moduleS                                          map[string]float64
}

func (t *serviceTally) add(st service.Stats, d snapDiff, diagMs []float64) {
	t.diagMs.add(diagMs...)
	t.completed += float64(st.Completed)
	t.deduped += float64(st.Deduped)
	t.apgHit += float64(st.APG.Hits)
	t.apgAll += float64(st.APG.Hits + st.APG.Misses)
	t.sdHit += float64(st.SD.Hits)
	t.sdAll += float64(st.SD.Hits + st.SD.Misses)
	n, s := d.hist("diads_service_queue_wait_seconds", nil)
	t.queueWaitN += n
	t.queueWaitS += s
	if t.moduleS == nil {
		t.moduleS = map[string]float64{}
	}
	for _, mod := range diagModules {
		_, sum := d.hist("diads_module_wall_seconds", map[string]string{"pipeline": "diads", "module": mod})
		t.moduleS[mod] += sum
	}
}

// report adds the service.* metrics per repetition, and the diag.*
// module self times per diagnosis from the program's module wall-time
// sums, with the part of the per-diagnosis latency they do not account
// for. DA and CR run concurrently, so that remainder can be negative.
func (t *serviceTally) report(out map[string]float64, reps float64) {
	out["service.queue_wait_ms"] = ratio(t.queueWaitS*1e3, float64(t.queueWaitN))
	out["service.diagnoses"] = t.completed / reps
	out["service.deduped"] = t.deduped / reps
	out["service.apg_hit_ratio"] = ratio(t.apgHit, t.apgAll)
	out["service.sd_hit_ratio"] = ratio(t.sdHit, t.sdAll)
	if t.completed == 0 {
		return
	}
	latency := t.diagMs.mean()
	sum := 0.0
	for _, mod := range diagModules {
		v := t.moduleS[mod] * 1e3 / t.completed
		out["diag."+mod+"_ms"] = v
		sum += v
	}
	out["service.diagnosis_ms"] = latency
	out["diag.latency_ms"] = latency
	out["diag.other_ms"] = latency - sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
