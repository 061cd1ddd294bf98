package main

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestPeakRSSReset checks that resetting the high-water mark forgets a
// peak reached before the reset, so each measured unit's peak is its own.
func TestPeakRSSReset(t *testing.T) {
	const size = 64 << 20
	buf := make([]byte, size)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	before, err := peakRSSMiB()
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(buf)
	buf = nil
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSSMiB()
	if err != nil {
		t.Fatal(err)
	}
	if before-after < size>>21 { // half the buffer, in MiB
		t.Fatalf("peak %.1f MiB after the reset, %.1f MiB before it: the %d MiB buffer was not forgotten", after, before, size>>20)
	}
}
