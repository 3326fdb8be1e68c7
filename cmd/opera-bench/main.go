// Command opera-bench runs the engine/transport hot-path benchmark set
// and writes the results as machine-readable JSON (BENCH_engine.json by
// default). It exists so perf numbers travel with CI runs as artifacts
// instead of living in scrollback: the suite covers the port transmit
// pipeline (BenchmarkPortEnqueue), the scheduler core under its dense,
// deep and sparse workloads for both pending-event stores
// (BenchmarkEngineSchedule/{dense,deep,sparse}/{wheel,heap}), flow
// admission through Cluster.AddFlow at the §5 scale
// (BenchmarkClusterAddFlows: ns/flow and allocs/flow), cluster setup at
// that scale (BenchmarkClusterBuild, and its routing-table cycle alone,
// BenchmarkRoutingBuild), and the end-to-end Source-driven steady state
// (BenchmarkSourceSteadyState).
// Every run passes -benchmem, so B/op and allocs/op are measured even for
// benchmarks that do not call ReportAllocs.
//
// The report also derives the wheel-vs-heap speedup per scheduler workload
// — the number the timing-wheel default is justified by — so a regression
// shows up as a ratio, not two values someone has to divide.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// A run is one `go test -bench` invocation.
type run struct {
	pkg     string // package path relative to the module root
	pattern string
	time    string // -benchtime
}

var runs = []run{
	{pkg: "./internal/sim/", pattern: "^BenchmarkPortEnqueue", time: "1s"},
	{pkg: "./internal/eventsim/", pattern: "^BenchmarkEngineSchedule$", time: "1s"},
	{pkg: "./internal/routing/", pattern: "^BenchmarkRoutingBuild$", time: "1s"},
	{pkg: ".", pattern: "^Benchmark(ClusterAddFlows|SourceSteadyState)$", time: "1x"},
	{pkg: ".", pattern: "^BenchmarkClusterBuild$", time: "1s"},
}

// Result is one benchmark line, parsed.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra holds custom ReportMetric units (flows/op, sim-events/op, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH_engine.json document.
type Report struct {
	Benchmarks []Result `json:"benchmarks"`
	// Derived ratios, keyed by name. <workload>_wheel_vs_heap_speedup is
	// heap ns/op divided by wheel ns/op on that scheduler workload (dense,
	// deep, sparse): > 1 means the wheel (the engine default) is winning.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// benchLine matches `BenchmarkFoo/sub-8   123  45.6 ns/op  0 B/op  ...`.
// The -N GOMAXPROCS suffix and every unit column are optional.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(pkg string, out []byte, into *[]Result) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		r := Result{Name: m[1], Package: pkg}
		r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[unit] = v
			}
		}
		*into = append(*into, r)
	}
}

func main() {
	out := flag.String("out", "BENCH_engine.json", "output JSON path")
	benchtime := flag.String("benchtime", "", "override -benchtime for every run (e.g. 100ms for a smoke pass)")
	flag.Parse()

	rep := Report{Derived: make(map[string]float64)}
	for _, r := range runs {
		bt := r.time
		if *benchtime != "" {
			bt = *benchtime
		}
		cmd := exec.Command("go", "test", "-run", "NONE", "-bench", r.pattern, "-benchmem", "-benchtime", bt, r.pkg)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		os.Stdout.Write(raw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opera-bench: %s: %v\n", r.pkg, err)
			os.Exit(1)
		}
		parse(r.pkg, raw, &rep.Benchmarks)
	}

	byName := make(map[string]Result, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	for _, wl := range []string{"dense", "deep", "sparse"} {
		w, h := byName["BenchmarkEngineSchedule/"+wl+"/wheel"], byName["BenchmarkEngineSchedule/"+wl+"/heap"]
		if w.NsPerOp > 0 {
			rep.Derived[wl+"_wheel_vs_heap_speedup"] = h.NsPerOp / w.NsPerOp
		}
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "opera-bench: %v\n", err)
		os.Exit(1)
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "opera-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "opera-bench: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}
