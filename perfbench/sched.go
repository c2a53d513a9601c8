package main

import (
	"math/rand"
	"time"
)

// arrival is one open-loop request: when it is due (from the start of
// the phase) and which pool item it asks for.
type arrival struct {
	Due  time.Duration
	Item int
}

// poissonSchedule draws an open-loop arrival process at rate requests
// per second over d: exponential gaps, each arrival's item chosen by
// pick. Everything comes from rng, so one seed gives one schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, pick func(*rand.Rand) int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{Due: due, Item: pick(rng)})
	}
}

// tickSchedule is a fixed-tick arrival process (the PATCH writer).
func tickSchedule(tick, d time.Duration) []arrival {
	var out []arrival
	for due := tick; due < d; due += tick {
		out = append(out, arrival{Due: due, Item: len(out)})
	}
	return out
}
