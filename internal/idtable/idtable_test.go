package idtable

import (
	"math/rand"
	"testing"
)

type rec struct{ id int64 }

// checkInvariants verifies the representation: the consumed front and the
// array past the end hold only nil, the lowest live record sits at head,
// and live counts the records.
func checkInvariants[T any](t *testing.T, tb *Table[T]) {
	t.Helper()
	all := tb.slots[:cap(tb.slots)]
	live := 0
	for i, p := range all {
		if p == nil {
			continue
		}
		if i < tb.head || i >= len(tb.slots) {
			t.Fatalf("record at slot %d outside live span [%d,%d)", i, tb.head, len(tb.slots))
		}
		live++
	}
	if live != tb.live {
		t.Fatalf("live = %d, counted %d", tb.live, live)
	}
	if live > 0 && tb.slots[tb.head] == nil {
		t.Fatalf("head slot %d is empty", tb.head)
	}
}

// TestTableMatchesMap drives random Put/Get/Delete against a map oracle.
// IDs advance like a flow counter with a window of live records, but the
// mix also Puts below the base (late first contact), Gets released and
// never-seen IDs, and re-Puts released IDs.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb Table[rec]
		oracle := make(map[int64]*rec)
		var next int64 = 1000
		for step := 0; step < 20000; step++ {
			var id int64
			switch r := rng.Intn(10); {
			case r < 4: // a new ID at the counter
				id = next
				next += 1 + int64(rng.Intn(3))
			case r < 8: // an ID near the counter
				id = next - 1 - int64(rng.Intn(64))
			default: // far below: released long ago, or late first contact
				id = next - int64(rng.Intn(int(next)))
			}
			switch op := rng.Intn(3); op {
			case 0:
				v := &rec{id}
				tb.Put(id, v)
				oracle[id] = v
			case 1:
				tb.Delete(id)
				delete(oracle, id)
			case 2:
				if got, want := tb.Get(id), oracle[id]; got != want {
					t.Fatalf("seed %d step %d: Get(%d) = %v, want %v", seed, step, id, got, want)
				}
			}
			if tb.Len() != len(oracle) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, tb.Len(), len(oracle))
			}
			if step%997 == 0 {
				checkInvariants(t, &tb)
			}
		}
		checkInvariants(t, &tb)
		for id := int64(-5); id < next+5; id++ {
			if got, want := tb.Get(id), oracle[id]; got != want {
				t.Fatalf("seed %d: final Get(%d) = %v, want %v", seed, id, got, want)
			}
		}
	}
}

func TestTableReleasedAndUnknownIDs(t *testing.T) {
	var tb Table[rec]
	if tb.Get(0) != nil || tb.Get(-1) != nil || tb.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	tb.Delete(7) // no-op on an empty table
	a, b := &rec{1}, &rec{2}
	tb.Put(1, a)
	tb.Put(2, b)
	tb.Delete(1)
	if tb.Get(1) != nil || tb.Get(2) != b || tb.Len() != 1 {
		t.Fatal("Delete(1) disturbed the table")
	}
	tb.Put(1, a) // re-Put below the base after release
	if tb.Get(1) != a || tb.Len() != 2 {
		t.Fatal("re-Put of a released ID lost")
	}
	tb.Put(1, b) // replace: Len unchanged
	if tb.Get(1) != b || tb.Len() != 2 {
		t.Fatal("replacing Put miscounted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of nil did not panic")
		}
	}()
	tb.Put(3, nil)
}

// TestTableCapacityFollowsLiveSpan churns a million IDs with a few hundred
// live at a time. Capacity must stay O(live span) throughout — including
// while one long-lived ID pins the front — and fall back once that ID is
// released.
func TestTableCapacityFollowsLiveSpan(t *testing.T) {
	const (
		total  = 1_000_000
		window = 300     // live records trailing the counter
		pinned = 500_000 // released after this many further IDs
	)
	var tb Table[rec]
	recs := make([]rec, window+1)
	tb.Put(0, &recs[window]) // the long-lived ID
	maxCap := 0
	for id := int64(1); id <= total; id++ {
		tb.Put(id, &recs[id%window])
		if id > window {
			tb.Delete(id - window)
		}
		lowest := max(1, id-window+1) // lowest live ID of the churn window
		want := int(id - lowest + 1)
		if id == pinned {
			tb.Delete(0)
		}
		if id < pinned {
			lowest = 0
			want++
		}
		if span, c := int(id-lowest+1), cap(tb.slots); c > 4*span+16 {
			t.Fatalf("id %d: cap %d for live span %d", id, c, span)
		}
		if tb.Len() != want {
			t.Fatalf("id %d: Len = %d, want %d", id, tb.Len(), want)
		}
		maxCap = max(maxCap, cap(tb.slots))
	}
	if maxCap < pinned {
		t.Fatalf("pinned ID did not hold the span open (max cap %d)", maxCap)
	}
	if c := cap(tb.slots); c > 4*window {
		t.Fatalf("capacity %d did not fall back after the pin was released (live %d)", c, tb.Len())
	}
	checkInvariants(t, &tb)
	for id := int64(total - window + 1); id <= total; id++ {
		tb.Delete(id)
	}
	if tb.Len() != 0 || cap(tb.slots) > minShrink {
		t.Fatalf("emptied table holds Len %d cap %d", tb.Len(), cap(tb.slots))
	}
}

// TestAllocsSteadyChurn: once sized, a table with a steady window of live
// IDs admits and releases without allocating — it compacts into its
// consumed front instead of moving to a new array. One measured run is
// 1000 admissions, since testing.AllocsPerRun truncates its average.
func TestAllocsSteadyChurn(t *testing.T) {
	var tb Table[rec]
	r := &rec{}
	id := int64(0)
	churn := func() {
		for range 1000 {
			id++
			tb.Put(id, r)
			if id > 100 {
				tb.Delete(id - 100)
			}
		}
	}
	churn()
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Fatalf("steady churn allocates %.0f per 1000 admissions, want 0", avg)
	}
}
