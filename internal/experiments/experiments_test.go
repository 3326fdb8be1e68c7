package experiments

import (
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/prototype"
)

func TestTableCSV(t *testing.T) {
	tb := Table{Name: "x", Header: []string{"a", "b"}}
	tb.Add(1, 2.5)
	tb.Add("s", 0.0000012)
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n1,2.5\n") {
		t.Fatalf("csv = %q", csv)
	}
	if err := tb.WriteCSV(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestFig01(t *testing.T) {
	tables := Fig01FlowSizeCDFs()
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	if len(tables[0].Rows) < 30 {
		t.Fatalf("flow CDF rows = %d", len(tables[0].Rows))
	}
}

func TestFig04SmallScale(t *testing.T) {
	tables, err := Fig04PathLengths(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	nets := map[string]bool{}
	for _, r := range rows {
		nets[r[0]] = true
	}
	if len(nets) != 3 {
		t.Fatalf("networks = %v", nets)
	}
}

func TestFig14(t *testing.T) {
	tables := Fig14CycleTime()
	first := tables[0].Rows[0]
	if first[0] != "12" || first[1] != "1" || first[2] != "1" {
		t.Fatalf("k=12 baseline row = %v", first)
	}
	// Grouped scaling is linear: k=48 grouped = 432/108 = 4.
	for _, r := range tables[0].Rows {
		if r[0] == "48" && r[2] != "4" {
			t.Fatalf("k=48 grouped = %v, want 4", r[2])
		}
	}
}

func TestFig17SmallScale(t *testing.T) {
	s := SmallScale()
	// Spectral analysis needs u >= 5-ish graphs to be meaningful but runs
	// at any scale; just verify structure.
	tables, err := Fig17SpectralGap(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) < s.Racks {
		t.Fatalf("rows = %d, want >= one per slice", len(tables[0].Rows))
	}
}

func TestTables1And2(t *testing.T) {
	t1 := Table1RuleCounts()
	if len(t1[0].Rows) != 6 {
		t.Fatalf("table1 rows = %d", len(t1[0].Rows))
	}
	if t1[0].Rows[0][2] != "12096" {
		t.Fatalf("table1 first entry count = %v", t1[0].Rows[0])
	}
	t2 := Table2Cost()
	found := false
	for _, r := range t2[0].Rows {
		if r[0] == "Total" && r[1] == "215" && r[2] == "275" {
			found = true
		}
	}
	if !found {
		t.Fatal("table2 totals missing")
	}
}

func TestFig11SmallScale(t *testing.T) {
	tables, err := Fig11FaultTolerance(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	// No-loss regime at 1% links.
	for _, r := range tables[0].Rows {
		if r[0] == "links" && r[1] == "0.01" && r[3] != "0" {
			t.Fatalf("1%% link failures should lose nothing, got %v", r)
		}
	}
}

func TestFig19And20SmallScale(t *testing.T) {
	if _, err := Fig19ClosFailures(SmallScale(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig20ExpanderFailures(SmallScale(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestFig13(t *testing.T) {
	p := prototype.DefaultParams()
	p.Samples = 2000
	tables, err := Fig13Prototype(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) < 100 {
		t.Fatalf("rows = %d", len(tables[0].Rows))
	}
}

func TestFig15FluidSweep(t *testing.T) {
	tables, err := Fig15CostSweepK12()
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3*len(AlphaSweep) {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig08SmallShuffle(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiment")
	}
	opt := DefaultShuffleOptions()
	opt.FlowBytes = 50_000
	tables, err := Fig08Shuffle(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Summary: every network completes nearly all flows, and Opera's tax
	// is near zero (all-direct).
	sum := tables[1]
	for _, r := range sum.Rows {
		if r[2] == "0" {
			t.Fatalf("network %s completed nothing", r[0])
		}
	}
	checkGolden(t, "fig08_small_shuffle", tables)
}

func TestFig10MixedTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiment")
	}
	opt := DefaultMixedOptions()
	opt.WebsearchLoads = []float64{0.05}
	opt.Duration = 5 * eventsim.Millisecond
	tables, err := Fig10Mixed(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	if len(tables[0].Rows) != 3 {
		t.Fatalf("throughput rows = %d, want one per network", len(tables[0].Rows))
	}
	// The by-tag breakdown carries both workload components per cell.
	if len(tables[1].Rows) != 6 {
		t.Fatalf("by-tag rows = %d, want networks × tags", len(tables[1].Rows))
	}
	for _, r := range tables[1].Rows {
		if r[2] != "shuffle" && r[2] != "websearch" {
			t.Fatalf("unexpected tag %q", r[2])
		}
	}
	checkGolden(t, "fig10_mixed_tiny", tables)
}

func TestFig07TinyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiment")
	}
	opt := DefaultSimOptions()
	opt.Loads = []float64{0.05}
	opt.Duration = 5 * eventsim.Millisecond
	opt.MaxFlowBytes = 2_000_000
	tables, err := Fig07Datamining(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("no FCT rows")
	}
	checkGolden(t, "fig07_tiny_run", tables)
}
