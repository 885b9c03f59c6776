package engine

import (
	"math"
	"sync/atomic"
)

// run resumes the instance on its module's interpreter loop: the structured
// naive interpreter, or the register-form loop every lowered module uses.
func (in *Instance) run(fuel int64) (Status, error) {
	if in.mod.cfg.Tier == TierNaive {
		return in.runNaive(fuel)
	}
	return in.runRegister(fuel)
}

// PollGas is the piece RunUntil runs between two looks at its stop flag:
// about 5 µs of the register loop, so a flag raised mid-run is seen within
// that much execution, while the loop itself never reads it.
const PollGas = 4096

// RunUntil is Run(fuel) cut into pieces of PollGas: after each piece that
// yields with fuel left it reads *stop and returns early if the value is
// positive. Without an early return it stops exactly where Run(fuel) stops,
// because each piece's budget is the fuel still unspent, counted in the
// module's own unit: the gas the piece burned under block metering, which
// can pass the budget by one charge, and the dispatches under NoBlockMeter,
// whose meter yields only once the budget is spent. left is the fuel not yet
// spent when the run yields: positive after an early return, <= 0 when the
// fuel ran out. A nil stop runs fuel in one piece. The naive tier, which
// traps rather than yields when fuel runs out, and fuel <= 0 (no preemption)
// run plain Run(fuel) and report left 0.
//
//sledge:noalloc
func (in *Instance) RunUntil(fuel int64, stop *atomic.Int64) (st Status, left int64, err error) {
	if fuel <= 0 || in.mod.cfg.Tier == TierNaive {
		st, err = in.Run(fuel)
		return st, 0, err
	}
	for left = fuel; ; {
		piece := left
		if stop != nil {
			piece = min(left, PollGas)
		}
		gas := in.Gas
		if st, err = in.Run(piece); st != StatusYielded {
			return st, left, err
		}
		if in.mod.cfg.NoBlockMeter {
			left -= piece
		} else {
			left -= int64(in.Gas - gas)
		}
		if left <= 0 || stop == nil || stop.Load() > 0 {
			return st, left, nil
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func f32(v uint64) float32  { return math.Float32frombits(uint32(v)) }
func u32f(v float32) uint64 { return uint64(math.Float32bits(v)) }
func f64(v uint64) float64  { return math.Float64frombits(v) }
func uf64(v float64) uint64 { return math.Float64bits(v) }

func truncS32(f float64) (uint64, TrapCode) {
	if math.IsNaN(f) {
		return 0, TrapInvalidConversion
	}
	t := math.Trunc(f)
	if t < math.MinInt32 || t > math.MaxInt32 {
		return 0, TrapIntOverflow
	}
	return uint64(uint32(int32(t))), 0
}

func truncU32(f float64) (uint64, TrapCode) {
	if math.IsNaN(f) {
		return 0, TrapInvalidConversion
	}
	t := math.Trunc(f)
	if t < 0 || t > math.MaxUint32 {
		return 0, TrapIntOverflow
	}
	return uint64(uint32(t)), 0
}

func truncS64(f float64) (uint64, TrapCode) {
	if math.IsNaN(f) {
		return 0, TrapInvalidConversion
	}
	t := math.Trunc(f)
	// 2^63-1 is not representable in float64; the constant rounds up to
	// 2^63, which is exactly the first overflowing value.
	if t < math.MinInt64 || t >= math.MaxInt64 {
		return 0, TrapIntOverflow
	}
	return uint64(int64(t)), 0
}

func truncU64(f float64) (uint64, TrapCode) {
	if math.IsNaN(f) {
		return 0, TrapInvalidConversion
	}
	t := math.Trunc(f)
	if t < 0 || t >= math.MaxUint64 {
		return 0, TrapIntOverflow
	}
	return uint64(t), 0
}
