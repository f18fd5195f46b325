package tables

import "sync"

// ResetCache empties the table cache, the intern set and the interned
// rows, so a test can count what one set of lookups builds. Tables and
// rows already handed out stay valid; later lookups build afresh. Not
// safe beside concurrent lookups.
func ResetCache() {
	for _, m := range []*sync.Map{&cache, &rows} {
		m.Range(func(k, _ any) bool {
			m.Delete(k)
			return true
		})
	}
	interned.Lock()
	interned.m = nil
	interned.Unlock()
}

// CacheCounts returns the number of cached keys and of distinct tables
// they point to.
func CacheCounts() (keys, tables int) {
	distinct := make(map[*Radial]bool)
	cache.Range(func(_, v any) bool {
		keys++
		distinct[v.(*Radial)] = true
		return true
	})
	return keys, len(distinct)
}
