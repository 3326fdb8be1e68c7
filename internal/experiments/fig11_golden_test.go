package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden pins tables' CSVs byte-for-byte against
// testdata/<name>.golden. Regenerate with UPDATE_GOLDEN=1 go test
// ./internal/experiments/ -run <test> and review the diff: any drift must be
// a deliberate model change, never a side effect of an engine refactor.
func checkGolden(t *testing.T, name string, tables []Table) {
	t.Helper()
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Name)
		b.WriteByte('\n')
		b.WriteString(tb.CSV())
	}
	got := b.String()

	golden := filepath.Join("testdata", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s CSVs drifted from golden\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestFig11CanaryGolden pins the small-scale Figure 11/18 CSVs. The failure
// figures are pure functions of (topology, seed); any drift here means a
// change to the fault model or its sampling altered published numbers.
func TestFig11CanaryGolden(t *testing.T) {
	tables, err := Fig11FaultTolerance(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig11_canary_small", tables)
}
