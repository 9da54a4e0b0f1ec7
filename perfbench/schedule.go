package main

import "time"

// clock is the open loop's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// sendTiming is one open-loop request's timing, both measured from the
// moment the schedule said it was due.
type sendTiming struct {
	latency time.Duration // due → reply complete
	late    time.Duration // due → send actually began (0 when on time)
}

// openLoop sends each item at its due offset from start, whether or not
// earlier replies were fast: an item whose due time has already passed
// is sent at once. Timing from the due time, not from the send, charges
// a stall to every request it delayed, so a diagnoser that slows down
// under load shows the slowdown as latency instead of receiving a
// gentler load. Offsets must be non-decreasing.
func openLoop(c clock, start time.Time, due []time.Duration, send func(i int)) []sendTiming {
	out := make([]sendTiming, len(due))
	for i, d := range due {
		at := start.Add(d)
		if w := at.Sub(c.Now()); w > 0 {
			c.Sleep(w)
		}
		began := c.Now()
		send(i)
		out[i] = sendTiming{latency: c.Now().Sub(at), late: max(0, began.Sub(at))}
	}
	return out
}

// evenSchedule returns n offsets spaced interval apart, starting at 0.
func evenSchedule(n int, interval time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * interval
	}
	return out
}
