package main

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// size fixes the cluster shape and how much traffic each workload offers.
// "paper" is the §5 evaluation scale (108 racks × 6 hosts × 6 uplinks, 648
// hosts); "tiny" keeps every code path but runs in well under a second, for
// the package test.
type size struct {
	name                  string
	racks, hosts, uplinks int

	websearchFlows int           // flows websearch-ll admits
	rpcWindow      eventsim.Time // Poisson arrival window of rpc-churn
	lossyLinks     int           // rpc-churn uplinks made lossy
}

var sizes = map[string]size{
	"paper": {
		name: "paper", racks: 108, hosts: 6, uplinks: 6,
		websearchFlows: 1000,
		rpcWindow:      20 * eventsim.Millisecond,
		lossyLinks:     32,
	},
	"tiny": {
		name: "tiny", racks: 16, hosts: 4, uplinks: 4,
		websearchFlows: 20,
		rpcWindow:      2 * eventsim.Millisecond,
		lossyLinks:     4,
	},
}

const (
	linkRateGbps = 10
	// lossRate is the drop probability of each lossy uplink in rpc-churn:
	// high enough that retransmits are frequent, low enough that every flow
	// still completes well before the deadline.
	lossRate = 0.02
	// websearchCap keeps every websearch flow strictly below Opera's 15 MB
	// bulk threshold, so all of them ride NDP.
	websearchCap = opera.DefaultBulkThreshold - 1
	shuffleBytes = 10_000
	rpcBytes     = 1500
)

// faultSpec is one scheduled fault, generated by the benchmark and handed
// to the cluster through Faults().Inject.
type faultSpec struct {
	target sim.Target
	fault  sim.Fault
	at     eventsim.Time
}

// inputs are everything a workload feeds the cluster, generated from the
// workload seed before the cluster exists. Exactly one of specs and source
// is set; source returns a fresh lazy stream each time, so every repetition
// admits the identical flow sequence.
type inputs struct {
	specs  []workload.FlowSpec
	source func() workload.Source
	faults []faultSpec
}

// workloadDef is one benchmark workload: the cluster options it needs, the
// run deadline, and its input generator.
type workloadDef struct {
	name      string
	retention opera.RetentionPolicy
	bulkTag   bool // application-tag every flow as bulk (§5.2)
	deadline  eventsim.Time
	gen       func(sz size, seed int64) inputs
}

var workloads = []workloadDef{
	{
		name:      "websearch-ll",
		retention: opera.RetainAll(),
		deadline:  500 * eventsim.Millisecond,
		gen: func(sz size, seed int64) inputs {
			// The arrival window is open-ended; the flow count bounds the run.
			cfg := poissonConfig(sz, 0.25, eventsim.Second, workload.Websearch(), seed)
			flowSizes := stratifiedSizes(workload.Websearch(), sz.websearchFlows, websearchCap, seed)
			return inputs{source: func() workload.Source {
				return withSizes(workload.PoissonSource(cfg), flowSizes)
			}}
		},
	},
	{
		name:      "shuffle-bulk",
		retention: opera.RetainAll(),
		bulkTag:   true,
		deadline:  2000 * eventsim.Millisecond,
		gen: func(sz size, seed int64) inputs {
			return inputs{specs: workload.Shuffle(sz.racks*sz.hosts, shuffleBytes, 0, seed)}
		},
	},
	{
		name: "rpc-churn",
		// A 0.05% sketch error resolves the sub-percent FCT differences of
		// 1500 B flows; the 1% default puts every seed in the same bucket.
		retention: opera.RetainSketch(opera.SketchOptions{Alpha: 0.0005}),
		deadline:  500 * eventsim.Millisecond,
		gen: func(sz size, seed int64) inputs {
			cfg := poissonConfig(sz, 0.05, sz.rpcWindow, workload.Fixed(rpcBytes), seed)
			return inputs{
				source: func() workload.Source { return workload.PoissonSource(cfg) },
				faults: lossyUplinks(sz, seed),
			}
		},
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func poissonConfig(sz size, load float64, window eventsim.Time, dist *workload.FlowSizeDist, seed int64) workload.PoissonConfig {
	return workload.PoissonConfig{
		NumHosts:     sz.racks * sz.hosts,
		HostsPerRack: sz.hosts,
		Load:         load,
		LinkRateGbps: linkRateGbps,
		Duration:     window,
		Dist:         dist,
		Seed:         seed,
	}
}

// stratifiedSizes draws n flow sizes from dist, one from each of n
// equal-probability strata at a seeded point inside it, capped at maxBytes.
// The i-th size comes from stratum i·stride mod n, which spreads the large
// sizes evenly over the arrivals. Every size still follows dist, but the
// total no longer swings with the few multi-megabyte draws of a heavy
// tail, so the work of a run barely depends on the seed.
func stratifiedSizes(dist *workload.FlowSizeDist, n int, maxBytes int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x51_2e5))
	out := make([]int64, n)
	stride := strideCoprime(n)
	for i := range out {
		k := (i * stride) % n
		out[i] = min(dist.Quantile((float64(k)+rng.Float64())/float64(n)), maxBytes)
	}
	return out
}

// strideCoprime returns the integer nearest n/φ that is coprime with n:
// stepping through the strata by it visits each once and spreads the
// large sizes evenly over the arrivals.
func strideCoprime(n int) int {
	s := int(float64(n)/1.618033988749895 + 0.5)
	for gcd(s, n) != 1 {
		s++
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// withSizes takes arrival times and endpoints from src and the i-th flow's
// size from sizes[i], ending after len(sizes) flows.
func withSizes(src workload.Source, sizes []int64) workload.Source {
	i := 0
	return workload.SourceFunc(func() (workload.FlowSpec, bool) {
		if i == len(sizes) {
			return workload.FlowSpec{}, false
		}
		spec, ok := src.Next()
		if !ok {
			return spec, false
		}
		spec.Bytes = sizes[i]
		i++
		return spec, true
	})
}

// lossyUplinks picks distinct ToR uplinks at random and makes each lossy
// from time zero for the whole run: gray failures NDP must retransmit
// through.
func lossyUplinks(sz size, seed int64) []faultSpec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_fa17))
	perm := rng.Perm(sz.racks * sz.uplinks)[:sz.lossyLinks]
	out := make([]faultSpec, len(perm))
	for i, l := range perm {
		out[i] = faultSpec{
			target: sim.LinkTarget(sim.FlatLink(l/sz.uplinks, l%sz.uplinks)),
			fault:  sim.LossyFault(lossRate),
		}
	}
	return out
}

// clusterOptions are the opera.New options of a workload at a size.
func clusterOptions(w workloadDef, sz size, clusterSeed int64) []opera.Option {
	return []opera.Option{
		opera.WithRacks(sz.racks),
		opera.WithHostsPerRack(sz.hosts),
		opera.WithUplinks(sz.uplinks),
		opera.WithSeed(clusterSeed),
		opera.WithAppTaggedBulk(w.bulkTag),
		opera.WithRetention(w.retention),
	}
}
