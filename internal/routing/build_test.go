package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/opera-net/opera/internal/topology"
)

// referenceBuild is the scalar oracle for TestBuildMatchesReference: one
// queue-driven BFS per (slice, source), then uplink k of src joins the mask
// toward dst iff its peer is one hop closer.
func referenceBuild(maps []PortMap) *Tables {
	n := len(maps[0])
	t := &Tables{
		N:      n,
		U:      maps[0].NumUplinks(),
		Slices: len(maps),
		dist:   make([]uint8, len(maps)*n*n),
		mask:   make([]uint32, len(maps)*n*n),
	}
	distFrom := make([][]int32, n)
	for i := range distFrom {
		distFrom[i] = make([]int32, n)
	}
	for s, pm := range maps {
		for src := 0; src < n; src++ {
			d := distFrom[src]
			for i := range d {
				d[i] = -1
			}
			d[src] = 0
			queue := []int32{int32(src)}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, peer := range pm[v] {
					if peer >= 0 && peer != v && d[peer] == -1 {
						d[peer] = d[v] + 1
						queue = append(queue, peer)
					}
				}
			}
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				idx := s*n*n + src*n + dst
				dd := distFrom[src][dst]
				switch {
				case dst == src:
					continue
				case dd < 0:
					t.dist[idx] = Unreachable
					continue
				}
				t.dist[idx] = uint8(dd)
				for k, peer := range pm[src] {
					if peer >= 0 && int(peer) != src && distFrom[peer][dst] == dd-1 {
						t.mask[idx] |= 1 << uint(k)
					}
				}
			}
		}
	}
	return t
}

// dropUplinks disables each uplink end independently with probability p,
// so a link may stay usable in one direction only.
func dropUplinks(maps []PortMap, p float64, rng *rand.Rand) {
	for _, pm := range maps {
		for _, row := range pm {
			for k := range row {
				if rng.Float64() < p {
					row[k] = -1
				}
			}
		}
	}
}

func checkMatchesReference(t *testing.T, name string, maps []PortMap) {
	t.Helper()
	got, err := Build(maps)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := referenceBuild(maps)
	if !slices.Equal(got.dist, want.dist) {
		t.Fatalf("%s: dist differs from the reference builder", name)
	}
	if !slices.Equal(got.mask, want.mask) {
		t.Fatalf("%s: mask differs from the reference builder", name)
	}
	if err := got.Validate(maps); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestBuildMatchesReference: the bitset build is byte-identical to the
// per-source BFS on Opera cycles (symmetric, or asymmetric and partly
// unreachable after random uplink drops), the expander, an all-dark map and
// random directed maps with self-loops across the 64-rack word boundary.
func TestBuildMatchesReference(t *testing.T) {
	for _, sz := range []struct{ racks, uplinks int }{{16, 4}, {64, 4}, {108, 6}} {
		for seed := int64(1); seed <= 3; seed++ {
			o := topology.MustNewOpera(topology.Config{
				NumRacks: sz.racks, HostsPerRack: 4, NumSwitches: sz.uplinks, Seed: seed,
			})
			rng := rand.New(rand.NewSource(seed))
			for _, p := range []float64{0, 0.1, 0.5, 0.9} {
				maps := OperaPortMaps(o)
				dropUplinks(maps, p, rng)
				checkMatchesReference(t, fmt.Sprintf("opera %d racks seed %d drop %.1f", sz.racks, seed, p), maps)
			}
		}
	}

	checkMatchesReference(t, "expander", ExpanderPortMap(topology.MustNewExpander(32, 4, 5, 1)))

	dark := make(PortMap, 70)
	for r := range dark {
		dark[r] = []int32{-1, -1, -1}
	}
	checkMatchesReference(t, "all dark", []PortMap{dark})

	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		pm := make(PortMap, n)
		for r := range pm {
			pm[r] = make([]int32, 3)
			for k := range pm[r] {
				pm[r][k] = int32(rng.Intn(n+1)) - 1 // -1 (dark), a self-loop, or any rack
			}
		}
		checkMatchesReference(t, fmt.Sprintf("random directed %d racks", n), []PortMap{pm})
	}
}

// TestAllocsRoutingBuild: the bitset scratch is reused across slices, so a
// 108-slice cycle costs no more allocations than a 16-slice one.
func TestAllocsRoutingBuild(t *testing.T) {
	allocs := func(racks, uplinks int) (nslices int, avg float64) {
		maps := OperaPortMaps(topology.MustNewOpera(topology.Config{
			NumRacks: racks, HostsPerRack: 4, NumSwitches: uplinks, Seed: 1,
		}))
		return len(maps), testing.AllocsPerRun(5, func() { MustBuild(maps) })
	}
	smallSlices, small := allocs(16, 4)
	bigSlices, big := allocs(108, 6)
	if small != big {
		t.Fatalf("Build allocates %.0f for %d slices but %.0f for %d", small, smallSlices, big, bigSlices)
	}
}

var tablesSink *Tables

// BenchmarkRoutingBuild builds the full next-hop table cycle of the §5
// network: 108 racks × 6 uplinks, 108 slices.
func BenchmarkRoutingBuild(b *testing.B) {
	maps := OperaPortMaps(topology.MustNewOpera(topology.Config{
		NumRacks: 108, HostsPerRack: 6, NumSwitches: 6, Seed: 1,
	}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tablesSink = MustBuild(maps)
	}
}
