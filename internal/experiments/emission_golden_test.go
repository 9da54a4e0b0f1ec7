package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"diads/internal/metrics"
	"diads/internal/simtime"
)

// emissionGolden pins every sample the simulator emits: at three seeds,
// all nine scenario stores plus the online instance, faulted and
// healthy, under four chunk sizes. Any change to the emission path
// (integrator, noise streams, store layout) must leave this digest
// untouched.
const (
	emissionGoldenSamples = 606188
	emissionGoldenSHA256  = "96aea6daa02e8d19a30758bf92986dad785b8f191291bb6714b2872d6886ccd5"
)

// hashStore writes one store into h: per series, in Keys() order, its
// key and its component's metric list, then the exact bits of every
// sample. It returns the number of samples written.
func hashStore(h hash.Hash, s *metrics.Store) int {
	n := 0
	for _, k := range s.Keys() {
		fmt.Fprintf(h, "%s|%s|%v\n", k.Component, k.Metric, s.MetricsFor(k.Component))
		for _, smp := range s.Series(k.Component, k.Metric) {
			fmt.Fprintf(h, "%x %x\n", math.Float64bits(float64(smp.T)), math.Float64bits(smp.V))
			n++
		}
	}
	return n
}

func TestEmissionGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 27 scenarios and 24 online instances")
	}
	h := sha256.New()
	samples := 0
	for _, seed := range []int64{1, 7, 42} {
		for id := S1SANMisconfig; id <= SRAIDRebuild; id++ {
			sc, err := Build(id, seed)
			if err != nil {
				t.Fatalf("scenario %d seed %d: %v", id, seed, err)
			}
			samples += hashStore(h, sc.Testbed.Store)
		}
		for _, chunk := range []simtime.Duration{0, 5 * simtime.Minute, 7 * simtime.Minute, 2 * simtime.Hour} {
			for _, noFault := range []bool{false, true} {
				spec := OnlineSpec{Seed: seed, Runs: 12, Offset: 13 * simtime.Minute, NoFault: noFault}
				env, err := BuildOnline(spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := env.Testbed.SimulateStream(chunk, nil); err != nil {
					t.Fatalf("%+v chunk %v: %v", spec, chunk, err)
				}
				samples += hashStore(h, env.Testbed.Store)
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if samples != emissionGoldenSamples || got != emissionGoldenSHA256 {
		t.Fatalf("emission changed: %d samples, sha256 %s; want %d samples, sha256 %s",
			samples, got, emissionGoldenSamples, emissionGoldenSHA256)
	}
}
