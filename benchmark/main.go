// Command benchmark is the repository's end-to-end benchmark. It drives
// the public opera.Cluster API (opera.New, AddFlows/AddSource,
// Faults().Inject, RunUntilDone) through one of three paper-scale Opera
// workloads, checks the simulated output, and prints its metrics — the
// end-to-end ones with --trace 0, the per-layer ones from a traced run
// with --trace 1. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload websearch-ll --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and how
// to read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// Repetitions per invocation: a run repeats its workload until --seconds
// have passed and at least minReps runs are in, then builds more clusters
// (without running them) until setup_s has minSetups samples.
const (
	minReps   = 3
	minSetups = 7
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: websearch-ll, shuffle-bulk or rpc-churn")
	seed := fs.Int64("seed", 1, "workload seed: arrivals, sizes, endpoints and faults")
	clusterSeed := fs.Int64("cluster-seed", 0, "cluster seed: topology and packet spraying (0 = same as --seed)")
	seconds := fs.Float64("seconds", 10, "host seconds to keep repeating the workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	sizeName := fs.String("size", "paper", "cluster and workload scale: paper or tiny")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sz, ok := sizes[*sizeName]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: bad --size %q or --trace %d\n", *sizeName, *trace)
		return 2
	}
	if *clusterSeed == 0 {
		*clusterSeed = *seed
	}
	j := job{w: w, sz: sz, seed: *seed, clusterSeed: *clusterSeed, in: w.gen(sz, *seed)}
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "workload %s  size %s (%d racks x %d hosts x %d uplinks)  seed %d  cluster-seed %d\n",
		w.name, sz.name, sz.racks, sz.hosts, sz.uplinks, j.seed, j.clusterSeed)

	var res result
	if *trace == 0 {
		res = measure(j, budget, stdout)
	} else {
		res = measureTraced(j, budget, stdout)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure repeats the workload untraced and reports the end-to-end
// metrics: medians over repetitions for host-side ones, and the (identical)
// simulated results of every repetition for sim_* ones.
func measure(j job, budget time.Duration, stdout io.Writer) result {
	start := time.Now()
	var reps []rep
	for len(reps) < minReps || time.Since(start) < budget {
		r := runRep(j, nil, false)
		reps = append(reps, r)
		printRep(stdout, len(reps), r)
		if r.err != nil {
			break
		}
	}
	setups := make([]float64, 0, minSetups)
	for _, r := range reps {
		setups = append(setups, r.setupS)
	}
	for reps[len(reps)-1].err == nil && len(setups) < minSetups {
		setups = append(setups, runRep(j, nil, true).setupS)
	}

	res, err := tally(reps)
	first := reps[0]
	flows := float64(max(first.admitted, 1))
	vals := map[string]float64{
		"setup_s":           median(setups),
		"run_s":             medianOf(reps, func(r rep) float64 { return r.runS }),
		"allocs_per_flow":   medianOf(reps, func(r rep) float64 { return float64(r.allocs) }) / flows,
		"bytes_per_flow":    medianOf(reps, func(r rep) float64 { return float64(r.bytes) }) / flows,
		"heap_live_mb":      medianOf(reps, func(r rep) float64 { return float64(r.heapLive) }) / (1 << 20),
		"sim_fct_p50_us":    first.sim.fctP50,
		"sim_fct_p99_us":    first.sim.fctP99,
		"sim_hops_per_byte": first.sim.hops,
		"sim_goodput_frac":  first.sim.goodputFrac,
	}
	fmt.Fprintf(stdout, "flows %d  fct samples %d  flow_fail_frac %g  digest %016x\n",
		first.admitted, first.sim.fctN, float64(res.Failed)/float64(max(res.Attempted, 1)), first.digest)
	return finish(res, err, endToEnd, vals, stdout)
}

// measureTraced runs the workload once untraced as a reference, then
// traced until the budget is spent, and reports the per-layer metrics as
// medians over the traced repetitions. Each traced digest must equal the
// reference digest: the sampler and the profiler must not change results.
func measureTraced(j job, budget time.Duration, stdout io.Writer) result {
	start := time.Now()
	ref := runRep(j, nil, false)
	printRep(stdout, 0, ref)
	reps := []rep{ref}
	for ref.err == nil && (len(reps) < 2 || time.Since(start) < budget) {
		r := runRep(j, &tracer{}, false)
		reps = append(reps, r)
		printRep(stdout, len(reps)-1, r)
		if r.err != nil {
			break
		}
	}
	res, err := tally(reps)
	vals := map[string]float64{}
	traced := reps[1:]
	if err == nil {
		for _, m := range perLayer {
			vals[m.name] = medianOf(traced, func(r rep) float64 { return r.layers[m.name] })
		}
		vals["trace.overhead_frac"] = medianOf(traced, func(r rep) float64 { return r.runS })/ref.runS - 1
	}
	return finish(res, err, perLayer, vals, stdout)
}

// tally sums attempts and failures and checks every repetition: no output
// check may fail, and all digests must agree.
func tally(reps []rep) (result, error) {
	var res result
	var errs []error
	for i, r := range reps {
		res.Attempted += r.admitted
		res.Failed += r.failed
		if r.err != nil {
			errs = append(errs, fmt.Errorf("repetition %d: %w", i, r.err))
		} else if r.digest != reps[0].digest {
			errs = append(errs, fmt.Errorf("repetition %d: digest %016x differs from %016x", i, r.digest, reps[0].digest))
		}
	}
	return res, errors.Join(errs...)
}

// finish prints the metric table and fills in the result.
func finish(res result, err error, ms []metric, vals map[string]float64, stdout io.Writer) result {
	res.Correct = err == nil
	if err != nil {
		fmt.Fprintln(stdout, "CHECK FAILED:", err)
		if res.Failed == 0 {
			res.Failed = max(res.Attempted, 1)
		}
	}
	res.Attempted = max(res.Attempted, 1)
	res.Metrics = make(map[string]value, len(ms))
	for _, m := range ms {
		v, ok := vals[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "  %-28s %16.6g %-14s %s is better\n", m.name, v, m.unit, m.better)
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return res
}

func printRep(stdout io.Writer, i int, r rep) {
	kind := "rep"
	if r.layers != nil {
		kind = "traced rep"
	}
	fmt.Fprintf(stdout, "%s %d: setup %.4fs run %.4fs (wall %.4fs) flows %d failed %d digest %016x",
		kind, i, r.setupS, r.runS, r.runWallS, r.admitted, r.failed, r.digest)
	if r.err != nil {
		fmt.Fprintf(stdout, " error: %v", r.err)
	}
	fmt.Fprintln(stdout)
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
