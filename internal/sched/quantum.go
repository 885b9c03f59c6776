package sched

import (
	"math"
	"time"
)

// The quantum is a time (Config.Quantum) but the engine is preempted on
// fuel, which shares units with gas. Each worker converts one into the other
// with a gas-per-millisecond rate it learns from the quanta it runs: gas is
// a deterministic function of (module, path), and the sandbox already
// brackets every quantum with clock reads (sandbox.LastSlice), so every
// slice that yields or completes is a measurement of the rate on this core,
// for this engine configuration, under this co-tenancy — at no cost to a
// request that finishes inside its first quantum.
const (
	// seedGasPerMS converts the quantum until a worker's first sample
	// lands: 1.6 M gas per 5 ms, the middle of what the register-form
	// interpreter does on the 2-vCPU build machine.
	seedGasPerMS = 320_000
	// The learned rate is held inside [minGasPerMS, maxGasPerMS]: a
	// stepped clock or a run descheduled mid-slice must not be able to turn
	// preemption off (rate → ∞) or into thrash (rate → 0). The lower bound
	// makes the smallest slice Quantum × 160 k gas — 800 k gas at 5 ms.
	minGasPerMS = seedGasPerMS / 2
	maxGasPerMS = seedGasPerMS * 8
	// sampleGasFloor is the least gas a slice must burn to be a sample. A
	// 0.5 µs ping run is clock noise, and a run this short is mostly cold
	// misses and host calls, not the interpreter's steady rate.
	sampleGasFloor = 50_000
	// rateWindow is how many quanta of gas the running average spans: a
	// full slice moves the rate by 1/rateWindow of its error, a shorter
	// sample in proportion to its gas.
	rateWindow = 8
	// minFuel keeps a degenerate Config.Quantum from turning every loop
	// back-edge into a preemption.
	minFuel = 1000
)

// rateLearner is one worker's gas/ms estimate. It is owned by the worker
// goroutine; the worker publishes the result for readers.
type rateLearner struct {
	rate float64 // gas per millisecond
	// mass is the evidence behind rate, in quanta of gas. It starts at one
	// (the seed counts as a single slice) and saturates at rateWindow-1,
	// which turns the running mean of the first samples into an
	// exponentially weighted one: n full slices after start-up the seed
	// weighs 1/(n+1), and from the seventh on it decays by 7/8 per slice.
	mass float64
}

func newRateLearner() rateLearner { return rateLearner{rate: seedGasPerMS, mass: 1} }

// fuelFor is the quantum in gas at rate gas per millisecond.
func fuelFor(quantum time.Duration, rate float64) int64 {
	return max(int64(rate*float64(quantum)/float64(time.Millisecond)), minFuel)
}

// observe folds one slice — gas burned over d of wall time, out of the fuel
// a full slice gets — into the rate and reports whether it counted.
func (l *rateLearner) observe(gas uint64, d time.Duration, fuel int64) bool {
	if gas < sampleGasFloor || d <= 0 {
		return false
	}
	sample := float64(gas) / (float64(d) / float64(time.Millisecond))
	q := math.Min(float64(gas)/float64(fuel), 1)
	l.rate += (sample - l.rate) * q / (l.mass + q)
	l.rate = math.Min(math.Max(l.rate, minGasPerMS), maxGasPerMS)
	l.mass = math.Min(l.mass+q, rateWindow-1)
	return true
}
