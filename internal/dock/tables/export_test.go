package tables

// ResetCache empties the table cache and the intern set, so a test can
// count what one set of lookups builds. Tables already handed out stay
// valid; later lookups build afresh. Not safe beside concurrent
// lookups.
func ResetCache() {
	cache.Range(func(k, _ any) bool {
		cache.Delete(k)
		return true
	})
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
