package routing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/opera-net/opera/internal/topology"
)

func lineMap(n int) PortMap {
	// racks in a line: 0-1-2-...-n-1, two uplinks each (left, right).
	pm := make(PortMap, n)
	for r := 0; r < n; r++ {
		left, right := int32(r-1), int32(r+1)
		if r == 0 {
			left = -1
		}
		if r == n-1 {
			right = -1
		}
		pm[r] = []int32{left, right}
	}
	return pm
}

func TestBuildLine(t *testing.T) {
	tb := MustBuild([]PortMap{lineMap(5)})
	if tb.Dist(0, 0, 4) != 4 {
		t.Fatalf("dist 0→4 = %d, want 4", tb.Dist(0, 0, 4))
	}
	if tb.Dist(0, 2, 2) != 0 {
		t.Fatal("self distance nonzero")
	}
	// From rack 2 toward 4, only the "right" uplink (index 1) helps.
	if m := tb.Mask(0, 2, 4); m != 0b10 {
		t.Fatalf("mask = %b, want 10", m)
	}
	if m := tb.Mask(0, 2, 0); m != 0b01 {
		t.Fatalf("mask = %b, want 01", m)
	}
	if err := tb.Validate([]PortMap{lineMap(5)}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildUnreachable(t *testing.T) {
	pm := PortMap{
		{1, -1},
		{0, -1},
		{3, -1},
		{2, -1},
	}
	tb := MustBuild([]PortMap{pm})
	if tb.Dist(0, 0, 2) != Unreachable {
		t.Fatal("disconnected pair not marked unreachable")
	}
	if tb.Mask(0, 0, 2) != 0 {
		t.Fatal("unreachable pair has next hops")
	}
	if tb.PickUplink(0, 0, 2, 99) != -1 {
		t.Fatal("PickUplink for unreachable should be -1")
	}
	if err := tb.Validate([]PortMap{pm}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("empty maps accepted")
	}
	wide := make(PortMap, 2)
	wide[0] = make([]int32, 33)
	wide[1] = make([]int32, 33)
	if _, err := Build([]PortMap{wide}); err == nil {
		t.Fatal(">32 uplinks accepted")
	}
	// inconsistent shapes
	if _, err := Build([]PortMap{lineMap(4), lineMap(5)}); err == nil {
		t.Fatal("inconsistent slice shapes accepted")
	}
}

func TestPickUplinkUniform(t *testing.T) {
	// Ring of 4: rack 0 to rack 2 has two equal-cost uplinks.
	pm := PortMap{
		{1, 3},
		{2, 0},
		{3, 1},
		{0, 2},
	}
	tb := MustBuild([]PortMap{pm})
	if tb.Dist(0, 0, 2) != 2 {
		t.Fatalf("dist = %d", tb.Dist(0, 0, 2))
	}
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		counts[tb.PickUplink(0, 0, 2, uint32(i))]++
	}
	if len(counts) != 2 {
		t.Fatalf("uplink choices = %v, want both", counts)
	}
	if math.Abs(float64(counts[0]-counts[1])) > 100 {
		t.Fatalf("spray is unbalanced: %v", counts)
	}
}

func TestOperaTables(t *testing.T) {
	o := topology.MustNewOpera(topology.Config{
		NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, Seed: 1,
	})
	maps := OperaPortMaps(o)
	if len(maps) != o.SlicesPerCycle() {
		t.Fatalf("%d maps for %d slices", len(maps), o.SlicesPerCycle())
	}
	tb := MustBuild(maps)
	if err := tb.Validate(maps); err != nil {
		t.Fatal(err)
	}
	// Every pair reachable every slice (the always-on guarantee, §3.1.2).
	for s := 0; s < tb.Slices; s++ {
		for a := 0; a < tb.N; a++ {
			for b := 0; b < tb.N; b++ {
				if a != b && tb.Dist(s, a, b) == Unreachable {
					t.Fatalf("slice %d: pair (%d,%d) unreachable", s, a, b)
				}
			}
		}
	}
	// Transitioning switches must never appear in masks.
	for s := 0; s < tb.Slices; s++ {
		for sw := 0; sw < o.Uplinks(); sw++ {
			if !o.IsTransitioning(sw, s) {
				continue
			}
			for a := 0; a < tb.N; a++ {
				for b := 0; b < tb.N; b++ {
					if tb.Mask(s, a, b)&(1<<uint(sw)) != 0 {
						t.Fatalf("slice %d: transitioning switch %d in mask (%d→%d)", s, sw, a, b)
					}
				}
			}
		}
	}
}

func TestOperaPaperWorstCasePathLength(t *testing.T) {
	// §4.1 sizes ε from a worst-case path length of 5 ToR-to-ToR hops for
	// the 108-rack network (Figure 4 shows paths ≤ 5 hops). The builder
	// enforces this via design-time realization testing (§3.3).
	o := topology.MustNewOpera(topology.Config{
		NumRacks: 108, HostsPerRack: 6, NumSwitches: 6, Seed: 1, MaxDiameter: 5,
	})
	tb := MustBuild(OperaPortMaps(o))
	if max := tb.MaxDist(); max > 5 {
		t.Fatalf("worst-case path %d hops, paper expects <= 5", max)
	}
}

func TestExpanderPortMap(t *testing.T) {
	e := topology.MustNewExpander(32, 4, 5, 1)
	maps := ExpanderPortMap(e)
	if len(maps) != 1 {
		t.Fatalf("expander should have 1 slice, got %d", len(maps))
	}
	tb := MustBuild(maps)
	if err := tb.Validate(maps); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 32; a++ {
		for b := 0; b < 32; b++ {
			if a != b && tb.Dist(0, a, b) == Unreachable {
				t.Fatalf("pair (%d,%d) unreachable in expander", a, b)
			}
		}
	}
}

// Property: tables built from random connected port maps always validate
// (loop freedom) and agree with direct BFS reachability.
func TestTablesValidateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		u := 2 + rng.Intn(3)
		// Random symmetric port map built from u random matchings.
		pm := make(PortMap, n)
		for r := range pm {
			pm[r] = make([]int32, u)
			for k := range pm[r] {
				pm[r][k] = -1
			}
		}
		for k := 0; k < u; k++ {
			perm := rng.Perm(n)
			for i := 0; i+1 < n; i += 2 {
				a, b := perm[i], perm[i+1]
				pm[a][k] = int32(b)
				pm[b][k] = int32(a)
			}
		}
		tb, err := Build([]PortMap{pm})
		if err != nil {
			return false
		}
		return tb.Validate([]PortMap{pm}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRuleCountTable1(t *testing.T) {
	// Exact reproduction of Table 1's entry counts.
	want := map[int]int{
		108:  12096,
		252:  65268,
		520:  276120,
		768:  600576,
		1008: 1032192,
		1200: 1461600,
	}
	for _, row := range Table1() {
		if got := row.Entries; got != want[row.Racks] {
			t.Errorf("racks=%d: entries=%d, want %d", row.Racks, got, want[row.Racks])
		}
	}
	// Utilization column (percent, one decimal).
	wantUtil := map[int]float64{108: 0.7, 252: 3.8, 520: 16.2, 768: 35.3, 1008: 60.7, 1200: 85.9}
	for _, row := range Table1() {
		got := math.Round(row.Utilization*1000) / 10
		if math.Abs(got-wantUtil[row.Racks]) > 0.15 {
			t.Errorf("racks=%d: utilization=%.1f%%, want %.1f%%", row.Racks, got, wantUtil[row.Racks])
		}
	}
}

func TestRuleCountDegenerate(t *testing.T) {
	if RuleCount(1, 6) != 0 || RuleCount(10, 0) != 0 {
		t.Fatal("degenerate sizes should count zero rules")
	}
}

func TestCountRulesMatchesModel(t *testing.T) {
	// Table 1's closed form N(N-1) + N(u-1) must equal the footprint of
	// the tables this repository actually builds. The low-latency count is
	// exact: every destination is reachable in every slice. The bulk count
	// is N(u-1) minus the self-loop slices: rack 0 has a self-loop entry
	// in exactly one matching, shown for GroupSize slices per cycle, and
	// one port is transitioning each slice.
	o := topology.MustNewOpera(topology.Config{
		NumRacks: 24, HostsPerRack: 4, NumSwitches: 4, Seed: 1,
	})
	maps := OperaPortMaps(o)
	tb := MustBuild(maps)
	ll, bulk := CountRules(tb, maps)
	n := o.NumRacks()
	u := o.Uplinks()
	if ll != n*(n-1) {
		t.Fatalf("low-latency rules = %d, want %d", ll, n*(n-1))
	}
	// Rack 0's self-loop is shown for GroupSize slices per cycle; in one
	// of those its port is also the transitioning one (already excluded),
	// so G-1 additional slices lose a bulk rule.
	wantBulk := n*(u-1) - (o.Config().GroupSize - 1)
	if bulk != wantBulk {
		t.Fatalf("bulk rules = %d, want %d", bulk, wantBulk)
	}
	// The model is within one self-loop hold of the measured count.
	model := RuleCount(n, u)
	if diff := model - (ll + bulk); diff < 0 || diff > o.Config().GroupSize {
		t.Fatalf("model %d vs measured %d", model, ll+bulk)
	}
}
