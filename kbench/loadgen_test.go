package main

import (
	"context"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime stalls one send and checks that the
// sends scheduled after it on the same sender start late, that the
// lateness is reported, and that latency timed from the due time
// includes it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	offsets := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond}
	start := time.Now().Add(5 * time.Millisecond)
	sends := openLoop(context.Background(), start, offsets, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(sends) != len(offsets) {
		t.Fatalf("%d sends, want %d", len(sends), len(offsets))
	}
	for i, s := range sends {
		if want := start.Add(offsets[i]); !s.Due.Equal(want) {
			t.Errorf("send %d due %v, want %v", i, s.Due, want)
		}
	}
	for _, i := range []int{1, 2} {
		// The job finishes when its send returns; its latency from the
		// due time must carry the stall of send 0.
		lat := sends[i].End.Sub(sends[i].Due)
		if min := stall - offsets[i]; lat < min || sends[i].late() < min {
			t.Errorf("send %d: latency %v, late %v; want both >= %v", i, lat, sends[i].late(), min)
		}
	}
	if late := sends[3].late(); late > 40*time.Millisecond {
		t.Errorf("send 3, due after the stall cleared, started %v late", late)
	}
	var late []float64
	for _, s := range sends {
		late = append(late, float64(s.late().Nanoseconds())/1e6)
	}
	if got := maxOf(late); got < float64((stall - offsets[1]).Milliseconds()) {
		t.Errorf("max lateness %v ms does not show the stall", got)
	}
}

// TestOpenLoopSendersShareSchedule checks that two senders split the
// schedule and that a stall on one does not delay the other.
func TestOpenLoopSendersShareSchedule(t *testing.T) {
	const stall = 80 * time.Millisecond
	offsets := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	start := time.Now().Add(5 * time.Millisecond)
	sends := openLoop(context.Background(), start, offsets, 2, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if sends[2].late() < stall-offsets[2]-5*time.Millisecond {
		t.Errorf("send 2 shares the stalled sender but was only %v late", sends[2].late())
	}
	if sends[3].late() > 40*time.Millisecond {
		t.Errorf("send 3 on the other sender was %v late", sends[3].late())
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sends := openLoop(ctx, time.Now(), []time.Duration{time.Hour}, 1, func(int) error {
		t.Error("sent after cancel")
		return nil
	})
	if !sends[0].Start.IsZero() {
		t.Error("cancelled send has a start time")
	}
}
