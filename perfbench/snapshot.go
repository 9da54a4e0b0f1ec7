package main

import (
	"sort"
	"strings"

	"diads/internal/telemetry"
)

// snapshot indexes one telemetry.Default() snapshot by series identity.
type snapshot map[string]telemetry.SeriesSnapshot

func takeSnapshot() snapshot { return indexSnapshot(telemetry.Default().Snapshot()) }

func indexSnapshot(ms []telemetry.MetricSnapshot) snapshot {
	out := make(snapshot)
	for _, m := range ms {
		for _, s := range m.Series {
			out[seriesKey(m.Name, s.Labels)] = s
		}
	}
	return out
}

func seriesKey(name string, l telemetry.Labels) string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteString("\x00" + k + "=" + l[k])
	}
	return b.String()
}

// snapDiff is the program's own counters and histograms between two
// snapshots: what one phase of the benchmark made the program record.
type snapDiff struct{ before, after snapshot }

// matches reports whether the series key belongs to the family and
// carries every wanted label.
func matches(key, name string, want telemetry.Labels) bool {
	fam, rest, _ := strings.Cut(key, "\x00")
	if fam != name {
		return false
	}
	labels := "\x00" + rest
	for k, v := range want {
		if !strings.Contains(labels+"\x00", "\x00"+k+"="+v+"\x00") {
			return false
		}
	}
	return true
}

// counter sums the growth of every matching counter series.
func (d snapDiff) counter(name string, want telemetry.Labels) float64 {
	total := 0.0
	for key, s := range d.after {
		if matches(key, name, want) && s.Hist == nil {
			total += s.Value - d.before[key].Value
		}
	}
	return total
}

// hist sums the observations (count and sum) added to every matching
// histogram series.
func (d snapDiff) hist(name string, want telemetry.Labels) (count int64, sum float64) {
	for key, s := range d.after {
		if !matches(key, name, want) || s.Hist == nil {
			continue
		}
		count += s.Hist.Count
		sum += s.Hist.Sum
		if b := d.before[key].Hist; b != nil {
			count -= b.Count
			sum -= b.Sum
		}
	}
	return count, sum
}
