package prov

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// sameCell is the equality an index lookup answers, written without
// the index's normalization: nil matches nil, NaN matches NaN, numbers
// match by magnitude whether int or float, strings by content and
// times by instant.
func sameCell(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case string:
		y, ok := b.(string)
		return ok && x == y
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y)
	}
	if isNaN(a) || isNaN(b) {
		return isNaN(a) && isNaN(b)
	}
	fa, okA := numeric(a)
	fb, okB := numeric(b)
	return okA && okB && fa == fb
}

func isNaN(v Value) bool {
	f, ok := v.(float64)
	return ok && f != f
}

// TestIndexMatchesSnapshotScan drives a table through a seeded mix of
// inserts, index declarations (one backfilled partway through each
// run), re-keying updates and snapshots, with int, float (NaN and
// signed zeros among them), string, time (one instant in two zones)
// and nil cells. After every step, each kept snapshot's lookupAppend
// must return exactly the ids a scan of that snapshot matches, for
// every column and every key of every type; and it must report false
// once an index was declared or an indexed cell re-keyed after the
// snapshot was taken. Re-keys run on indexed and unindexed columns
// alike, so UpdateByKey's scan must match keys as the index does; and
// at the end of each run ORDER BY on the float column must sort.
func TestIndexMatchesSnapshotScan(t *testing.T) {
	base := time.Date(2014, 3, 1, 12, 0, 0, 0, time.UTC)
	domains := [][]Value{
		{nil, int64(0), int64(1), int64(2), int64(-3), int64(1<<53 + 1)},
		{nil, 0.0, math.Copysign(0, -1), 1.0, 2.5, -3.0, math.NaN(), float64(1 << 53)},
		{nil, "", "a", "b", "1"},
		{nil, base, base.In(time.FixedZone("east", 3600)), base.Add(time.Second), base.Add(time.Nanosecond)},
	}
	var keys []Value // every key of every type, probed against every column
	for _, d := range domains {
		keys = append(keys, d...)
	}
	cols := []Column{{"i", TInt}, {"f", TFloat}, {"s", TString}, {"ts", TTime}}

	type kept struct {
		snap  tableSnap
		stale bool // an index was declared or an indexed cell re-keyed since
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		if err := db.CreateTable("m", cols); err != nil {
			t.Fatal(err)
		}
		tab, err := db.lookupTable("m")
		if err != nil {
			t.Fatal(err)
		}
		randomRow := func() []Value {
			row := make([]Value, len(cols))
			for c, d := range domains {
				row[c] = d[rng.Intn(len(d))]
			}
			return row
		}
		indexed := make([]bool, len(cols))
		var snaps []*kept
		invalidate := func() {
			for _, k := range snaps {
				k.stale = true
			}
		}
		// Two columns are indexed before any row, the others partway.
		for _, c := range rng.Perm(len(cols))[:2] {
			if err := db.CreateIndex("m", cols[c].Name); err != nil {
				t.Fatal(err)
			}
			indexed[c] = true
		}
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // insert one row or a batch
				if rng.Intn(2) == 0 {
					if err := db.Insert("m", randomRow()); err != nil {
						t.Fatal(err)
					}
					break
				}
				batch := make([][]Value, 1+rng.Intn(6))
				for i := range batch {
					batch[i] = randomRow()
				}
				if err := db.InsertBatch("m", batch); err != nil {
					t.Fatal(err)
				}
			case op < 5: // declare an index (again, sometimes: a no-op)
				c := rng.Intn(len(cols))
				if err := db.CreateIndex("m", cols[c].Name); err != nil {
					t.Fatal(err)
				}
				if !indexed[c] {
					indexed[c] = true
					invalidate()
				}
			case op < 7: // re-key every row holding one value of an indexed column
				c := rng.Intn(len(cols))
				key := domains[c][rng.Intn(len(domains[c]))]
				set := rng.Intn(len(cols))
				val := domains[set][rng.Intn(len(domains[set]))]
				var want, moved int
				tab.mu.RLock()
				for i := 0; i < tab.n; i++ {
					if row := tab.rowLocked(i); sameCell(row[c], key) {
						want++
						if !sameCell(row[set], val) {
							moved++
						}
					}
				}
				tab.mu.RUnlock()
				n, err := db.UpdateByKey("m", cols[c].Name, key, func(row []Value) { row[set] = val })
				if err != nil {
					t.Fatal(err)
				}
				if n != want {
					t.Fatalf("seed %d step %d: UpdateByKey(%s = %v) updated %d rows, %d match", seed, step, cols[c].Name, key, n, want)
				}
				if indexed[set] && moved > 0 {
					invalidate()
				}
			default: // take a snapshot, keeping the last four
				snaps = append(snaps, &kept{snap: captureTables([]*Table{tab})[tab]})
				if len(snaps) > 4 {
					snaps = snaps[1:]
				}
			}
			for si, k := range snaps {
				for c := range cols {
					for _, key := range keys {
						ids, ok := k.snap.lookupAppend(nil, c, key)
						if want := indexed[c] && !k.stale; ok != want {
							t.Fatalf("seed %d step %d snapshot %d: lookup %s = %v reported %v, want %v",
								seed, step, si, cols[c].Name, key, ok, want)
						}
						if !ok {
							if len(ids) != 0 {
								t.Fatalf("seed %d step %d: a refused lookup appended %v", seed, step, ids)
							}
							continue
						}
						var scan []int
						for i := 0; i < k.snap.n; i++ {
							if sameCell(k.snap.row(i)[c], key) {
								scan = append(scan, i)
							}
						}
						slices.Sort(ids)
						if !slices.Equal(ids, scan) {
							t.Fatalf("seed %d step %d snapshot %d (%d rows): lookup %s = %v gave %v, scan %v",
								seed, step, si, k.snap.n, cols[c].Name, key, ids, scan)
						}
					}
				}
			}
		}
		// ORDER BY on the float column: NULL first, then numbers by
		// magnitude, then NaN, PostgreSQL's place for it.
		res, err := db.Query("SELECT f FROM m ORDER BY f")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tab.n {
			t.Fatalf("seed %d: ORDER BY f returned %d rows of %d", seed, len(res.Rows), tab.n)
		}
		rank := func(v Value) (int, float64) {
			switch {
			case v == nil:
				return 0, 0
			case isNaN(v):
				return 2, 0
			}
			f, _ := numeric(v)
			return 1, f
		}
		for i := 1; i < len(res.Rows); i++ {
			ra, fa := rank(res.Rows[i-1][0])
			rb, fb := rank(res.Rows[i][0])
			if ra > rb || (ra == rb && fa > fb) {
				t.Fatalf("seed %d: ORDER BY f puts %v before %v at row %d", seed, res.Rows[i-1][0], res.Rows[i][0], i)
			}
		}
	}
}
