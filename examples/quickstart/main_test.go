package main

import "testing"

// TestRun walks the whole example: the §2.2 encodings and all six
// packets delivered across the failed link.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
