package main

import (
	"runtime"
	"runtime/metrics"
)

// liveHeap runs a full collection and returns the bytes it found live.
// Episodes call it right after their timed operations, where the state a
// workload retains is largest; transient garbage never counts.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocCounters returns the cumulative count and bytes of heap allocations.
func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
