package engine

import "math"

// run resumes the instance on its module's interpreter loop: the structured
// naive interpreter, or the register-form loop every lowered module uses.
func (in *Instance) run(fuel int64) (Status, error) {
	if in.mod.cfg.Tier == TierNaive {
		return in.runNaive(fuel)
	}
	return in.runRegister(fuel)
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
