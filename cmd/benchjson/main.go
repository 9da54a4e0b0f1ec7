// Command benchjson converts `go test -bench` text output into a JSON
// document, so benchmark results can be persisted as machine-readable
// artifacts (BENCH_fleet.json) and diffed across commits instead of
// eyeballed in logs.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkFleet_Throughput -benchtime 3x . | benchjson -o BENCH_fleet.json
//
// Single-iteration results are refused by default: one iteration of a
// seeded end-to-end benchmark measures one sample of a noisy process,
// and persisting it as the artifact invites phantom regressions. Run
// with -benchtime 3x or higher, or pass -allow-single to override
// (smoke tests only).
//
// With -compare BASE.json, the run is also checked against a committed
// baseline: it fails when any baseline benchmark is missing from the
// run or its allocs/op exceeds the baseline's by more than -alloc-tol
// (a fraction; 0.10 allows 10%). Allocation counts are close to
// deterministic, so they gate; ns/op is printed beside them but only
// advises, since shared runners make wall time noisy. The baseline is
// read before -o is written, so both may name the same file.
//
//	go test -run '^$' -bench 'BenchmarkMicro_' . | benchjson -o BENCH_emit.json -compare BENCH_emit.json -alloc-tol 0.10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line, e.g.
// "BenchmarkFleet_Throughput/inst=2/workers=1-8  1  123456 ns/op".
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Document is the persisted artifact.
type Document struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	allowSingle := flag.Bool("allow-single", false,
		"accept 1-iteration results instead of refusing them")
	compare := flag.String("compare", "", "baseline JSON to check allocs/op against")
	allocTol := flag.Float64("alloc-tol", 0.10,
		"allowed allocs/op increase over the -compare baseline, as a fraction")
	flag.Parse()

	var base *Document
	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			fail(err)
		}
		base = &Document{}
		if err := json.Unmarshal(data, base); err != nil {
			fail(fmt.Errorf("%s: %w", *compare, err))
		}
	}
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fail(err)
	}
	if len(doc.Results) == 0 {
		fail(fmt.Errorf("no benchmark lines on stdin"))
	}
	if !*allowSingle {
		var single []string
		for _, r := range doc.Results {
			if r.Iterations <= 1 {
				single = append(single, r.Name)
			}
		}
		if len(single) > 0 {
			fail(fmt.Errorf("refusing 1-iteration results (run with -benchtime 3x or higher, or pass -allow-single): %s",
				strings.Join(single, ", ")))
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fail(err)
	}
	if base != nil {
		if regressed := compareAllocs(os.Stderr, base, doc, *allocTol); regressed > 0 {
			fail(fmt.Errorf("%d benchmark(s) regressed against %s", regressed, *compare))
		}
	}
}

// procSuffix is the GOMAXPROCS suffix go test appends to benchmark
// names ("-8"); baselines from machines of another width still match.
var procSuffix = regexp.MustCompile(`-\d+$`)

// compareAllocs reports every baseline benchmark against the run on w
// and returns how many regressed: missing from the run, or allocs/op
// above base × (1 + tol).
func compareAllocs(w io.Writer, base, run *Document, tol float64) int {
	byName := make(map[string]Result, len(run.Results))
	for _, r := range run.Results {
		byName[procSuffix.ReplaceAllString(r.Name, "")] = r
	}
	regressed := 0
	for _, b := range base.Results {
		name := procSuffix.ReplaceAllString(b.Name, "")
		r, ok := byName[name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: in the baseline but not in this run\n", name)
			regressed++
			continue
		}
		ba, bok := b.Metrics["allocs/op"]
		ra, rok := r.Metrics["allocs/op"]
		verdict := "ok  "
		switch {
		case !bok || !rok:
			verdict = "FAIL"
			regressed++
		case ra > ba*(1+tol):
			verdict = "FAIL"
			regressed++
		}
		fmt.Fprintf(w, "%s %s: allocs/op %g -> %g (tolerance +%g%%), ns/op %g -> %g (advisory)\n",
			verdict, name, ba, ra, tol*100, b.NsPerOp, r.NsPerOp)
	}
	return regressed
}

func parse(sc *bufio.Scanner) (*Document, error) {
	doc := &Document{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: malformed value %q in %q", fields[i], line)
			}
			if fields[i+1] == "ns/op" {
				r.NsPerOp = v
				continue
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[fields[i+1]] = v
		}
		doc.Results = append(doc.Results, r)
	}
	return doc, sc.Err()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
