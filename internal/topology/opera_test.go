package topology

import (
	"testing"
	"testing/quick"

	"github.com/opera-net/opera/internal/eventsim"
)

// paperConfig is the 108-rack, 648-host, k=12 network of §4.
func paperConfig() Config {
	return Config{
		NumRacks:     108,
		HostsPerRack: 6,
		NumSwitches:  6,
		Seed:         1,
	}
}

// smallConfig is a fast 16-rack network used across the test suite.
func smallConfig() Config {
	return Config{
		NumRacks:     16,
		HostsPerRack: 4,
		NumSwitches:  4,
		Seed:         1,
	}
}

func TestOperaPaperTimeConstants(t *testing.T) {
	o := MustNewOpera(paperConfig())
	if got := o.SliceDuration(); got != 100*eventsim.Microsecond {
		t.Fatalf("SliceDuration = %v, want 100µs", got)
	}
	if got := o.SlicesPerCycle(); got != 108 {
		t.Fatalf("SlicesPerCycle = %d, want 108", got)
	}
	// Paper: cycle time 10.7 ms (we model exactly 108 × 100 µs = 10.8 ms).
	if got := o.CycleTime(); got != 10800*eventsim.Microsecond {
		t.Fatalf("CycleTime = %v, want 10.8ms", got)
	}
	// Paper: duty cycle 98%.
	if duty := o.DutyCycle(); duty < 0.98 || duty > 0.99 {
		t.Fatalf("DutyCycle = %v, want ≈0.983", duty)
	}
	if got := o.MatchingsPerSwitch(); got != 18 {
		t.Fatalf("MatchingsPerSwitch = %d, want 18", got)
	}
	if o.NumHosts() != 648 {
		t.Fatalf("NumHosts = %d, want 648", o.NumHosts())
	}
}

func TestOperaInvalidConfigs(t *testing.T) {
	bad := []Config{
		{NumRacks: 7, HostsPerRack: 1, NumSwitches: 1},               // odd N
		{NumRacks: 8, HostsPerRack: 1, NumSwitches: 3},               // c ∤ N
		{NumRacks: 8, HostsPerRack: 0, NumSwitches: 4},               // no hosts
		{NumRacks: 8, HostsPerRack: 1, NumSwitches: 4, GroupSize: 3}, // G ∤ c
		{NumRacks: -2, HostsPerRack: 1, NumSwitches: 1},
	}
	for i, cfg := range bad {
		if _, err := NewOpera(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestOperaScheduleInvariants(t *testing.T) {
	o := MustNewOpera(smallConfig())
	cycle := o.SlicesPerCycle()
	m := o.MatchingsPerSwitch()
	g := o.Config().GroupSize

	for sw := 0; sw < o.Uplinks(); sw++ {
		// Each switch shows each of its matchings for exactly G slices per
		// cycle (counting with wraparound over one full period).
		counts := make(map[int]int)
		transitions := 0
		for s := 0; s < cycle; s++ {
			counts[o.MatchingOrdinal(sw, s)]++
			if o.IsTransitioning(sw, s) {
				transitions++
			}
			// Ordinal may only change at a boundary following a transition
			// slice.
			if s > 0 {
				prev := o.MatchingOrdinal(sw, s-1)
				cur := o.MatchingOrdinal(sw, s)
				if prev != cur && !o.IsTransitioning(sw, s-1) {
					t.Fatalf("switch %d changed matching after non-transition slice %d", sw, s-1)
				}
			}
		}
		if len(counts) != m {
			t.Fatalf("switch %d showed %d distinct matchings per cycle, want %d", sw, len(counts), m)
		}
		for ord, c := range counts {
			if c != g {
				t.Fatalf("switch %d matching %d shown %d slices, want %d", sw, ord, c, g)
			}
		}
		if transitions != m {
			t.Fatalf("switch %d transitioned %d times per cycle, want %d", sw, transitions, m)
		}
	}
}

func TestOperaSchedulePeriodicity(t *testing.T) {
	o := MustNewOpera(smallConfig())
	cycle := o.SlicesPerCycle()
	for sw := 0; sw < o.Uplinks(); sw++ {
		for s := 0; s < cycle; s++ {
			if o.MatchingOrdinal(sw, s) != o.MatchingOrdinal(sw, s+cycle) {
				t.Fatalf("schedule not periodic at switch %d slice %d", sw, s)
			}
		}
	}
}

func TestOperaTransitioningSets(t *testing.T) {
	// 6 switches in 2 groups of 3 → 2 switches transition per slice,
	// leaving 4 active matchings (enough for connectivity w.h.p.).
	cfg := Config{NumRacks: 36, HostsPerRack: 3, NumSwitches: 6, GroupSize: 3, Seed: 1}
	o := MustNewOpera(cfg)
	for s := 0; s < o.SlicesPerCycle(); s++ {
		// Exactly one switch per stagger group transitions.
		perGroup := make([]int, cfg.NumSwitches/cfg.GroupSize)
		for sw := 0; sw < cfg.NumSwitches; sw++ {
			if o.IsTransitioning(sw, s) {
				perGroup[sw/cfg.GroupSize]++
			}
		}
		for h, c := range perGroup {
			if c != 1 {
				t.Fatalf("slice %d: group %d has %d transitioning switches, want 1", s, h, c)
			}
		}
	}
}

func TestOperaDirectConnectivityOncePerCycle(t *testing.T) {
	// The core Opera guarantee (§3.1.2): integrated over one cycle, every
	// rack pair is directly connected by a usable (non-transitioning)
	// circuit.
	o := MustNewOpera(smallConfig())
	n := o.NumRacks()
	connected := make([][]bool, n)
	for i := range connected {
		connected[i] = make([]bool, n)
	}
	for s := 0; s < o.SlicesPerCycle(); s++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && o.DirectSwitch(s, a, b) >= 0 {
					connected[a][b] = true
				}
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && !connected[a][b] {
				t.Fatalf("racks (%d,%d) never directly connected in a cycle", a, b)
			}
		}
	}
}

func TestOperaDirectSwitchSymmetry(t *testing.T) {
	o := MustNewOpera(smallConfig())
	for s := 0; s < o.SlicesPerCycle(); s++ {
		for a := 0; a < o.NumRacks(); a++ {
			for b := a + 1; b < o.NumRacks(); b++ {
				if o.DirectSwitch(s, a, b) != o.DirectSwitch(s, b, a) {
					t.Fatalf("DirectSwitch asymmetric at slice %d (%d,%d)", s, a, b)
				}
			}
		}
	}
	if o.DirectSwitch(0, 3, 3) != -1 {
		t.Fatal("self pair should have no direct switch")
	}
}

func TestOperaSliceGraphsConnectedAndExpanding(t *testing.T) {
	o := MustNewOpera(paperConfig())
	for s := 0; s < o.SlicesPerCycle(); s++ {
		g := o.SliceGraph(s)
		if !g.Connected() {
			t.Fatalf("slice %d graph disconnected", s)
		}
		// With u−1 = 5 active matchings, racks have degree ≤ 5 (self-loops
		// reduce it) and the graph must not be trivially sparse.
		for v := 0; v < g.N(); v++ {
			if d := g.Degree(v); d > 5 {
				t.Fatalf("slice %d rack %d degree %d > u-1", s, v, d)
			}
		}
	}
}

func TestOperaPaperPathLengths(t *testing.T) {
	// Figure 4: for the 648-host Opera network, virtually all rack pairs
	// are within 5 hops in every topology slice.
	o := MustNewOpera(paperConfig())
	for _, s := range []int{0, 17, 53, 107} {
		ps := o.SliceGraph(s).AllPairs()
		if ps.Disconnected > 0 {
			t.Fatalf("slice %d: %d disconnected pairs", s, ps.Disconnected)
		}
		if max := ps.Max(); max > 6 {
			t.Fatalf("slice %d: max path %d hops, want <= 6", s, max)
		}
		if avg := ps.Avg(); avg < 2 || avg > 4 {
			t.Fatalf("slice %d: avg path %.2f, want ~2.5-3.5", s, avg)
		}
	}
}

func TestOperaFullSliceGraphDenser(t *testing.T) {
	o := MustNewOpera(smallConfig())
	for s := 0; s < o.SlicesPerCycle(); s++ {
		full := o.FullSliceGraph(s).NumEdges()
		part := o.SliceGraph(s).NumEdges()
		if full < part {
			t.Fatalf("slice %d: full graph has fewer edges (%d) than partial (%d)", s, full, part)
		}
	}
}

func TestOperaSliceAt(t *testing.T) {
	o := MustNewOpera(paperConfig())
	d := o.SliceDuration()
	sl, abs, off := o.SliceAt(0)
	if sl != 0 || abs != 0 || off != 0 {
		t.Fatalf("SliceAt(0) = %d,%d,%v", sl, abs, off)
	}
	sl, abs, off = o.SliceAt(d*108 + 42)
	if sl != 0 || abs != 108 || off != 42 {
		t.Fatalf("SliceAt(cycle+42) = %d,%d,%v", sl, abs, off)
	}
	if o.SliceStart(108) != d*108 {
		t.Fatalf("SliceStart mismatch")
	}
}

func TestOperaBulkWindow(t *testing.T) {
	cfg := paperConfig()
	cfg.GuardBand = 1 * eventsim.Microsecond
	o := MustNewOpera(cfg)
	// Switch 0 transitions in slices ≡ 0; during slice 1 its hold just
	// began, so the window starts after the guard band and runs to the
	// slice end.
	s, e := o.BulkWindow(0, 1)
	if s != cfg.GuardBand || e != o.SliceDuration() {
		t.Fatalf("hold-start window = [%v, %v]", s, e)
	}
	// Mid-hold (slice 2 for switch 0): the circuit is unchanged across the
	// boundary — full slice, no guards.
	s, e = o.BulkWindow(0, 2)
	if s != 0 || e != o.SliceDuration() {
		t.Fatalf("mid-hold window = [%v, %v]", s, e)
	}
	// Transitioning slice: window ends r+guard early.
	if !o.IsTransitioning(1, 1) {
		t.Fatal("switch 1 should transition in slice 1")
	}
	s, e = o.BulkWindow(1, 1)
	wantEnd := o.SliceDuration() - DefaultReconfDelay - cfg.GuardBand
	if s != 0 || e != wantEnd {
		t.Fatalf("transition window = [%v, %v], want [0, %v]", s, e, wantEnd)
	}
}

func TestGuardBandCapacityFactors(t *testing.T) {
	// §3.5: "each µs of guard time contributes a 1% relative reduction in
	// low-latency capacity and a 0.2% reduction for bulk traffic."
	base := paperConfig()
	perMicro := func(factor func(g eventsim.Time) float64) float64 {
		return factor(0) - factor(1*eventsim.Microsecond)
	}
	llDrop := perMicro(func(g eventsim.Time) float64 {
		cfg := base
		cfg.GuardBand = g
		return MustNewOpera(cfg).LowLatencyCapacityFactor()
	})
	if llDrop < 0.009 || llDrop > 0.011 {
		t.Fatalf("LL capacity drop per µs = %v, want ≈1%%", llDrop)
	}
	bulkDrop := perMicro(func(g eventsim.Time) float64 {
		cfg := base
		cfg.GuardBand = g
		return MustNewOpera(cfg).BulkCapacityFactor()
	})
	if bulkDrop < 0.001 || bulkDrop > 0.005 {
		t.Fatalf("bulk capacity drop per µs = %v, want ≈0.2-0.33%%", bulkDrop)
	}
}

func TestOperaHostMapping(t *testing.T) {
	o := MustNewOpera(smallConfig())
	if o.HostRack(0) != 0 || o.HostRack(7) != 1 || o.HostRack(63) != 15 {
		t.Fatal("HostRack mapping wrong")
	}
	lo, hi := o.RackHosts(2)
	if lo != 8 || hi != 12 {
		t.Fatalf("RackHosts(2) = [%d,%d)", lo, hi)
	}
}

func TestOperaDeterminism(t *testing.T) {
	a := MustNewOpera(smallConfig())
	b := MustNewOpera(smallConfig())
	for i, m := range a.Matchings() {
		for r, p := range m {
			if b.Matchings()[i][r] != p {
				t.Fatalf("same seed produced different topologies at matching %d rack %d", i, r)
			}
		}
	}
}

func TestOperaGroupingCutsCycle(t *testing.T) {
	// Appendix B: grouped reconfiguration shortens the cycle linearly.
	cfg := Config{NumRacks: 48, HostsPerRack: 6, NumSwitches: 12, GroupSize: 12, Seed: 3}
	ungrouped := MustNewOpera(cfg)
	cfg.GroupSize = 6
	grouped := MustNewOpera(cfg)
	if ungrouped.SlicesPerCycle() != 48 {
		t.Fatalf("ungrouped cycle = %d, want 48", ungrouped.SlicesPerCycle())
	}
	if grouped.SlicesPerCycle() != 24 {
		t.Fatalf("grouped cycle = %d, want 24", grouped.SlicesPerCycle())
	}
	transitioning := 0
	for sw := 0; sw < cfg.NumSwitches; sw++ {
		if grouped.IsTransitioning(sw, 0) {
			transitioning++
		}
	}
	if transitioning != 2 {
		t.Fatalf("grouped should transition 2 switches per slice")
	}
}

func TestRelativeCycleSlices(t *testing.T) {
	// Figure 14: k=12 ungrouped = 108 slices; grouping by 6 gives linear
	// scaling (9k slices).
	if got := RelativeCycleSlices(12, 0); got != 108 {
		t.Fatalf("k=12 ungrouped = %d, want 108", got)
	}
	if got := RelativeCycleSlices(12, 6); got != 108 {
		t.Fatalf("k=12 grouped = %d, want 108", got)
	}
	if got := RelativeCycleSlices(24, 6); got != 216 {
		t.Fatalf("k=24 grouped = %d, want 216", got)
	}
	if got := RelativeCycleSlices(64, 6); got != 576 {
		t.Fatalf("k=64 grouped = %d, want 576", got)
	}
	if got := RelativeCycleSlices(24, 0); got != 432 {
		t.Fatalf("k=24 ungrouped = %d, want 432", got)
	}
}

// Property: for random small Opera configs, every slice graph is connected
// and every pair gets a direct circuit each cycle.
func TestOperaInvariantsProperty(t *testing.T) {
	f := func(seed int64, rawN, rawC uint8) bool {
		c := 2 + int(rawC%3)           // 2..4 switches
		n := c * (2 + int(rawN%6)) * 2 // even multiple of c
		cfg := Config{NumRacks: n, HostsPerRack: 2, NumSwitches: c, Seed: seed}
		o, err := NewOpera(cfg)
		if err != nil {
			// Small topologies may legitimately fail the connectivity
			// search (e.g. N=2c edge cases); that is a reported error, not
			// an invariant violation.
			return true
		}
		for s := 0; s < o.SlicesPerCycle(); s++ {
			if !o.SliceGraph(s).Connected() {
				return false
			}
		}
		// direct connectivity over a cycle
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				found := false
				for s := 0; s < o.SlicesPerCycle() && !found; s++ {
					found = o.DirectSwitch(s, a, b) >= 0
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
