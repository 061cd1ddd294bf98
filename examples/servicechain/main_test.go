package main

import "testing"

// TestRun runs the whole example: the firewall→DPI chain order checked
// from the recorded journeys, and delivery with a chain link failed.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
