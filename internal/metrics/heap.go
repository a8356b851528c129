package metrics

import "runtime"

// LiveHeap returns the bytes of live heap after two forced collections.
func LiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// RetainedHeap calls build three times and returns the fewest bytes of live
// heap one call added, measured with LiveHeap before the call and again
// while its result is still held; each result is dropped before the next
// call. The least of three leaves out what one call pays once (a lazily
// built table, a grown pool) and allocation that another goroutine holds
// across a single window, so a ceiling on it fails only on what build
// really keeps. A reading is 0 when a window freed more than build kept.
func RetainedHeap(build func() any) uint64 {
	least := ^uint64(0)
	for range 3 {
		base := LiveHeap()
		kept := build()
		after := LiveHeap()
		runtime.KeepAlive(kept)
		if after < base {
			after = base
		}
		least = min(least, after-base)
	}
	return least
}
