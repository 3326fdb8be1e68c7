package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/opera-net/opera/internal/eventsim"
)

// invoke runs the command in-process and returns its exit code, its parsed
// last line and the digest it printed.
func invoke(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, &stdout, &stderr)
	}
	// The first repetition's digest (rep 1, or the traced run's reference).
	m := regexp.MustCompile(`rep [01]: .* digest ([0-9a-f]{16})`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("%v: no digest printed:\n%s", args, &stdout)
	}
	return code, res, m[1]
}

func checkMetrics(t *testing.T, args []string, res result, want []metric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("%v: metric %s missing", args, m.name)
		} else if v.Unit != m.unit {
			t.Errorf("%v: metric %s unit %q, want %q", args, m.name, v.Unit, m.unit)
		}
	}
}

// TestWorkloadsTiny runs every workload at the tiny size, untraced twice
// and traced once: every named metric prints, no flow fails, and the
// digest repeats across runs, traced or not.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := []string{"--workload", w.name, "--size", "tiny", "--seed", "3", "--seconds", "0"}
			var digests []string
			for _, trace := range []string{"0", "0", "1"} {
				args := append(base, "--trace", trace)
				code, res, d := invoke(t, args...)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%v: exit %d, result %+v", args, code, res)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				checkMetrics(t, args, res, want)
				digests = append(digests, d)
			}
			if digests[0] != digests[1] || digests[0] != digests[2] {
				t.Errorf("digests differ across runs: %v", digests)
			}
			_, _, other := invoke(t, "--workload", w.name, "--size", "tiny", "--seed", "4", "--seconds", "0")
			if other == digests[0] {
				t.Errorf("seeds 3 and 4 share digest %s", other)
			}
		})
	}
}

// TestFailedCheck cuts a run off before its flows can finish: the output
// check must fail and count the unfinished flows.
func TestFailedCheck(t *testing.T) {
	w, err := findWorkload("websearch-ll")
	if err != nil {
		t.Fatal(err)
	}
	w.deadline = 10 * eventsim.Microsecond
	sz := sizes["tiny"]
	var out bytes.Buffer
	res := measure(job{w: w, sz: sz, seed: 1, clusterSeed: 1, in: w.gen(sz, 1)}, time.Duration(0), &out)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("result %+v after a cut-off run, want a failed check:\n%s", res, &out)
	}
}

// TestBenchmarkJSON keeps the metric lists here and in BENCHMARK.json at
// the repository root in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := findWorkload(wl.Name); err != nil {
			t.Error(err)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command prints %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
