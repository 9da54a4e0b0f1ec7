package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) *Document {
	t.Helper()
	doc, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCompareAllocs gates on allocs/op only: growth within the
// tolerance passes whatever ns/op does, growth beyond it or a baseline
// benchmark missing from the run fails, and names match across
// GOMAXPROCS suffixes.
func TestCompareAllocs(t *testing.T) {
	base := mustParse(t, `
BenchmarkA-2   100   5000 ns/op   64 B/op   100 allocs/op
BenchmarkB-2   100   5000 ns/op   64 B/op    10 allocs/op
`)
	for _, tc := range []struct {
		name, run string
		want      int
	}{
		{"equal", "BenchmarkA-8 10 9 ns/op 100 allocs/op\nBenchmarkB-8 10 9 ns/op 10 allocs/op", 0},
		{"within tolerance, slower", "BenchmarkA-2 10 90000 ns/op 110 allocs/op\nBenchmarkB-2 10 9 ns/op 11 allocs/op", 0},
		{"beyond tolerance", "BenchmarkA-2 10 9 ns/op 111 allocs/op\nBenchmarkB-2 10 9 ns/op 10 allocs/op", 1},
		{"missing", "BenchmarkA-2 10 9 ns/op 100 allocs/op", 1},
		{"no allocs reported", "BenchmarkA-2 10 9 ns/op\nBenchmarkB-2 10 9 ns/op 10 allocs/op", 1},
	} {
		if got := compareAllocs(io.Discard, base, mustParse(t, tc.run), 0.10); got != tc.want {
			t.Errorf("%s: %d regressions, want %d", tc.name, got, tc.want)
		}
	}
}
