package prov

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Column is one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Row storage is segmented: rows accumulate in a small mutable tail
// and, every segSize rows, the tail is sealed into an immutable
// segment. Sealed segments are never written again — neither the
// row-pointer slots nor the rows themselves — so a query snapshot can
// reference them without copying and read them without holding any
// lock. Updates are copy-on-write: the replacement row lands in a new
// slot (tail write or segment clone) while snapshots keep reading the
// original row.
const (
	segShift = 10
	segSize  = 1 << segShift
	segMask  = segSize - 1
)

// segment is an immutable block of exactly segSize rows.
type segment struct {
	rows [][]Value
}

// tableIndex is an incremental hash index over one column. Each
// distinct normalized cell value (see head) maps to the newest row id
// linked under it, and next[id] continues row id's chain to the
// previous row holding the same value (-1 ends it): one map entry per
// distinct value and four bytes per row, where a posting list per
// value held a boxed key and a slice header. A chain runs newest first
// until an update relinks a row at the head of its new value's chain,
// so lookups yield ids in no fixed order and callers sort. Chains only
// lose a row when an update changes an indexed cell; that bumps
// Table.idxVersion so snapshots taken before the change stop trusting
// the index and fall back to scans. Ids are int32: an in-memory table
// stays far below 2³¹ rows.
type tableIndex struct {
	col   int
	num   map[float64]int32     // int64 and non-NaN float64 cells
	str   map[string]int32      // string cells
	other map[interface{}]int32 // nil, NaN (nanKey) and time (timeKey) cells
	next  []int32               // per row id: the previous id on its chain, or -1
}

func newTableIndex(col int) *tableIndex {
	return &tableIndex{
		col:   col,
		num:   make(map[float64]int32),
		str:   make(map[string]int32),
		other: make(map[interface{}]int32),
	}
}

// head returns the newest row id on v's chain, or -1. Ints and floats
// share the float64 map (the query layer parses every numeric literal
// as float64), so hash equality agrees with compareValues equality;
// NaN and timestamps go through indexKey's sentinels.
func (ix *tableIndex) head(v Value) int32 {
	var h int32
	var ok bool
	switch x := v.(type) {
	case int64:
		h, ok = ix.num[float64(x)]
	case float64:
		if x != x {
			h, ok = ix.other[nanKey{}]
			break
		}
		h, ok = ix.num[x]
	case string:
		h, ok = ix.str[x]
	default:
		h, ok = ix.other[indexKey(v)]
	}
	if !ok {
		return -1
	}
	return h
}

// setHead makes id the head of v's chain; -1 drops the value.
func (ix *tableIndex) setHead(v Value, id int32) {
	switch x := v.(type) {
	case int64:
		setOrDelete(ix.num, float64(x), id)
	case float64:
		if x != x {
			setOrDelete(ix.other, interface{}(nanKey{}), id)
			break
		}
		setOrDelete(ix.num, x, id)
	case string:
		setOrDelete(ix.str, x, id)
	default:
		setOrDelete(ix.other, indexKey(v), id)
	}
}

func setOrDelete[K comparable](m map[K]int32, k K, id int32) {
	if id < 0 {
		delete(m, k)
		return
	}
	m[k] = id
}

// push links row id, the newest row, at the head of v's chain.
func (ix *tableIndex) push(v Value, id int) {
	ix.next = append(ix.next, ix.head(v))
	ix.setHead(v, int32(id))
}

// relink moves row id from old's chain to the head of cur's.
func (ix *tableIndex) relink(id int, old, cur Value) {
	rid := int32(id)
	if h := ix.head(old); h == rid {
		ix.setHead(old, ix.next[rid])
	} else {
		for p := h; p >= 0; p = ix.next[p] {
			if ix.next[p] == rid {
				ix.next[p] = ix.next[rid]
				break
			}
		}
	}
	ix.next[rid] = ix.head(cur)
	ix.setHead(cur, rid)
}

// appendIDs appends to dst the ids below n on key's chain.
func (ix *tableIndex) appendIDs(dst []int, key Value, n int) []int {
	for id := ix.head(key); id >= 0; id = ix.next[id] {
		if int(id) < n {
			dst = append(dst, int(id))
		}
	}
	return dst
}

// Table is a named relation with a fixed schema. Row data is guarded
// by the table's own lock (there is no database-wide row lock), so
// ingest into one table never blocks queries over another.
type Table struct {
	Name    string
	Columns []Column

	mu         sync.RWMutex
	segs       []*segment
	tail       [][]Value
	n          int // len(segs)*segSize + len(tail)
	idx        []*tableIndex
	idxVersion uint64 // bumped whenever an existing posting is invalidated

	colIndex map[string]int
}

func (t *Table) buildIndex() {
	t.colIndex = make(map[string]int, 2*len(t.Columns))
	for i, c := range t.Columns {
		// Store the declared spelling and the lowercase key, so the
		// common case (already-lowercase SQL identifiers) resolves with
		// a single map hit and no ToLower call.
		t.colIndex[c.Name] = i
		t.colIndex[strings.ToLower(c.Name)] = i
	}
}

// ColumnIndex returns the position of a column (case-insensitive), or
// -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	if t.colIndex == nil {
		t.buildIndex()
	}
	if i, ok := t.colIndex[name]; ok {
		return i
	}
	if i, ok := t.colIndex[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// checkRow validates a row against the schema.
func (t *Table) checkRow(table string, row []Value) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("prov: table %q insert of %d values, schema has %d columns",
			table, len(row), len(t.Columns))
	}
	for i, v := range row {
		if err := checkType(v, t.Columns[i].Type); err != nil {
			return fmt.Errorf("prov: table %q column %q: %w", table, t.Columns[i].Name, err)
		}
	}
	return nil
}

// appendRowLocked publishes a (caller-owned, never again mutated) row
// under the table lock: tail append, index postings, seal on overflow.
func (t *Table) appendRowLocked(row []Value) {
	id := t.n
	t.tail = append(t.tail, row)
	t.n++
	for _, ix := range t.idx {
		ix.push(row[ix.col], id)
	}
	if len(t.tail) == segSize {
		t.segs = append(t.segs, &segment{rows: t.tail})
		t.tail = make([][]Value, 0, segSize)
	}
}

// rowLocked returns row i; the caller holds the table lock.
func (t *Table) rowLocked(i int) []Value {
	if s := i >> segShift; s < len(t.segs) {
		return t.segs[s].rows[i&segMask]
	}
	return t.tail[i-len(t.segs)*segSize]
}

// setRowLocked installs a replacement row at slot i. Tail slots are
// overwritten (snapshots copied the tail's pointers, so they keep the
// old row); sealed slots require cloning the whole segment, since a
// snapshot may be reading the old segment's slots without a lock.
func (t *Table) setRowLocked(i int, row []Value) {
	if s := i >> segShift; s < len(t.segs) {
		old := t.segs[s]
		rows := make([][]Value, segSize)
		copy(rows, old.rows)
		rows[i&segMask] = row
		t.segs[s] = &segment{rows: rows}
		return
	}
	t.tail[i-len(t.segs)*segSize] = row
}

// reindexLocked repairs the index chains after row id changed from old
// to cur, and invalidates in-flight snapshots' index use: a snapshot
// must not find a row under a value it did not hold then.
func (t *Table) reindexLocked(id int, old, cur []Value) {
	for _, ix := range t.idx {
		if indexKey(old[ix.col]) == indexKey(cur[ix.col]) {
			continue
		}
		ix.relink(id, old[ix.col], cur[ix.col])
		t.idxVersion++
	}
}

// updateRowLocked applies fn to row i copy-on-write and maintains the
// indexes.
func (t *Table) updateRowLocked(i int, fn func(row []Value)) {
	old := t.rowLocked(i)
	row := append([]Value(nil), old...)
	fn(row)
	t.setRowLocked(i, row)
	t.reindexLocked(i, old, row)
}

// nanKey and timeKey normalize float NaNs and timestamps into
// comparable, hashable index keys (see indexKey).
type nanKey struct{}

type timeKey struct {
	sec  int64
	nsec int32
}

// indexKey normalizes a cell value so hash equality agrees with
// compareValues equality: ints and floats unify on float64 (the query
// layer parses every numeric literal as float64), NaN hits a sentinel
// (Go maps never match NaN keys), and timestamps compare by instant.
// tableIndex.head dispatches on the same normalization without boxing
// numbers and strings.
func indexKey(v Value) interface{} {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		if x != x {
			return nanKey{}
		}
		return x
	case time.Time:
		return timeKey{sec: x.Unix(), nsec: int32(x.Nanosecond())}
	default:
		return v
	}
}

// tableSnap is a zero-copy point-in-time view of one table: the sealed
// segment list (shared, immutable) plus a shallow copy of the tail's
// row pointers. Rows are immutable once published, so the snapshot is
// readable without any lock.
type tableSnap struct {
	t       *Table
	segs    []*segment
	tail    [][]Value
	n       int
	version uint64
	idxCols []int
}

// captureLocked builds a snapshot; the caller holds at least a read
// lock on the table.
func (t *Table) captureLocked() tableSnap {
	s := tableSnap{
		t:       t,
		segs:    t.segs[:len(t.segs):len(t.segs)],
		tail:    append([][]Value(nil), t.tail...),
		n:       t.n,
		version: t.idxVersion,
	}
	for _, ix := range t.idx {
		s.idxCols = append(s.idxCols, ix.col)
	}
	return s
}

// row returns row i of the snapshot without locking.
func (s *tableSnap) row(i int) []Value {
	if g := i >> segShift; g < len(s.segs) {
		return s.segs[g].rows[i&segMask]
	}
	return s.tail[i-len(s.segs)*segSize]
}

// hasIndex reports whether column ci carried a hash index at capture
// time.
func (s *tableSnap) hasIndex(ci int) bool {
	for _, c := range s.idxCols {
		if c == ci {
			return true
		}
	}
	return false
}

// lookupAppend appends to dst the snapshot-visible row ids whose
// column ci equals key, using the table's live hash index. It reports
// false (and appends nothing) when the column has no index or when a
// chain lost a row since the snapshot — the caller then falls back to
// a scan. Ids come in chain order, so callers must sort before relying
// on row order.
func (s *tableSnap) lookupAppend(dst []int, ci int, key Value) ([]int, bool) {
	t := s.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.idxVersion != s.version {
		return dst, false
	}
	for _, ix := range t.idx {
		if ix.col != ci {
			continue
		}
		return ix.appendIDs(dst, key, s.n), true
	}
	return dst, false
}

// DB is the provenance database: a set of tables, each guarded by its
// own lock, so the engine's workers can stream activation records into
// hactivation while the scientist queries ddocking at runtime (the
// paper's "runtime provenance query" feature) without either blocking
// the other. The database-level lock guards only the table map.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable registers a new relation. Recreating an existing name is
// an error (schema migrations are out of scope).
func (db *DB) CreateTable(name string, cols []Column) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("prov: table %q already exists", name)
	}
	if len(cols) == 0 {
		return fmt.Errorf("prov: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("prov: table %q has duplicate column %q", name, c.Name)
		}
		seen[lc] = true
	}
	t := &Table{Name: key, Columns: cols}
	t.buildIndex()
	db.tables[key] = t
	return nil
}

// CreateIndex declares an incremental hash index on one column,
// backfilling it from existing rows. Declaring the same index twice is
// a no-op. Indexed columns make UpdateByKey (and the query planner's
// equality lookups) O(1) in the table size.
func (db *DB) CreateIndex(table, column string) error {
	t, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	ci := t.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("prov: table %q has no column %q", table, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ix := range t.idx {
		if ix.col == ci {
			return nil
		}
	}
	ix := newTableIndex(ci)
	ix.next = make([]int32, 0, t.n)
	for i := 0; i < t.n; i++ {
		ix.push(t.rowLocked(i)[ci], i)
	}
	t.idx = append(t.idx, ix)
	// Snapshots taken before the index existed must not trust it: the
	// backfill reflects current cell values, not theirs.
	t.idxVersion++
	return nil
}

// lookupTable resolves a table name under the map lock.
func (db *DB) lookupTable(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("prov: table %q does not exist", name)
	}
	return t, nil
}

// Insert appends a row after type checking.
func (db *DB) Insert(table string, row []Value) error {
	t, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	if err := t.checkRow(table, row); err != nil {
		return err
	}
	cp := append([]Value(nil), row...)
	t.mu.Lock()
	t.appendRowLocked(cp)
	t.mu.Unlock()
	return nil
}

// InsertBatch appends many rows under one lock acquisition — the bulk
// path the buffered appender flushes through.
func (db *DB) InsertBatch(table string, rows [][]Value) error {
	t, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	cps := make([][]Value, len(rows))
	for i, row := range rows {
		if err := t.checkRow(table, row); err != nil {
			return err
		}
		cps[i] = append([]Value(nil), row...)
	}
	t.mu.Lock()
	for _, cp := range cps {
		t.appendRowLocked(cp)
	}
	t.mu.Unlock()
	return nil
}

// UpdateByKey applies fn to a copy of every row whose column equals
// key and installs the copies (copy-on-write, so in-flight zero-copy
// snapshots keep reading the pre-update rows). It returns the number of
// rows updated. With a declared index on the column this is O(1) in
// the table size (CloseActivation's path); without one it scans the
// table.
func (db *DB) UpdateByKey(table, column string, key Value, fn func(row []Value)) (int, error) {
	t, err := db.lookupTable(table)
	if err != nil {
		return 0, err
	}
	ci := t.ColumnIndex(column)
	if ci < 0 {
		return 0, fmt.Errorf("prov: table %q has no column %q", table, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ix := range t.idx {
		if ix.col != ci {
			continue
		}
		// Collect the chain first: fn may change the key cell, which
		// relinks the row mid-walk.
		ids := ix.appendIDs(nil, key, t.n)
		for _, i := range ids {
			t.updateRowLocked(i, fn)
		}
		return len(ids), nil
	}
	n := 0
	for i := 0; i < t.n; i++ {
		if compareValues(t.rowLocked(i)[ci], key) != 0 {
			continue
		}
		t.updateRowLocked(i, fn)
		n++
	}
	return n, nil
}

// table returns the named table; the caller holds db.mu.
func (db *DB) table(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("prov: table %q does not exist", name)
	}
	return t, nil
}

// NumRows returns the row count of a table (0 for missing tables).
func (db *DB) NumRows(table string) int {
	t, err := db.lookupTable(table)
	if err != nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableNamesLocked()
}

// tableNamesLocked returns sorted table names; the caller holds db.mu.
func (db *DB) tableNamesLocked() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// captureTables takes a consistent multi-table snapshot: the read
// locks of all distinct tables are acquired in sorted name order (a
// canonical order, so concurrent snapshots cannot deadlock; writers
// only ever hold one table lock) and released once every capture is
// done.
func captureTables(tabs []*Table) map[*Table]tableSnap {
	locks := make([]*Table, 0, len(tabs))
	seen := make(map[*Table]bool, len(tabs))
	for _, t := range tabs {
		if !seen[t] {
			seen[t] = true
			locks = append(locks, t)
		}
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i].Name < locks[j].Name })
	for _, t := range locks {
		t.mu.RLock()
	}
	snaps := make(map[*Table]tableSnap, len(locks))
	for _, t := range locks {
		snaps[t] = t.captureLocked()
	}
	for _, t := range locks {
		t.mu.RUnlock()
	}
	return snaps
}
