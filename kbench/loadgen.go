package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns n send offsets from the step start with
// exponential gaps at rate per second, drawn from rng.
func poissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// sendTimes records one open-loop send: when it was due, when the
// generator began it and when the reply came back.
type sendTimes struct {
	Due, Start, End time.Time
	Err             error
}

// late is how far behind its schedule the generator began this send.
func (s sendTimes) late() time.Duration { return max(s.Start.Sub(s.Due), 0) }

// openLoop sends request i at start+offsets[i], whatever the replies
// take. senders goroutines share the schedule round-robin and each
// sends its own requests in order, so a send that stalls delays the
// later sends of its sender: that delay shows as lateness and, because
// latency is timed from the due time, as latency of the later jobs.
// It stops early when ctx is done; requests never begun keep a zero
// Start.
func openLoop(ctx context.Context, start time.Time, offsets []time.Duration, senders int, send func(i int) error) []sendTimes {
	out := make([]sendTimes, len(offsets))
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for i := s; i < len(offsets); i += senders {
				due := start.Add(offsets[i])
				out[i].Due = due
				if wait := time.Until(due); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				out[i].Start = time.Now()
				out[i].Err = send(i)
				out[i].End = time.Now()
			}
		}(s)
	}
	wg.Wait()
	return out
}
