package trace

import "math"

// rankPow computes n^y for ranks 1 <= n <= 2^53 with the float operations
// of Go's portable math.pow (src/math/pow.go; every GOARCH but s390x) in
// their order, so it is bit-equal to math.Pow(float64(n), y). The y-only
// work is done once, in newRankPow, and Log(n) comes from the caller's
// table. TestRankPowMatchesMathPow and FuzzRankPow hold it to math.Pow, so a
// Go release that changes math.Pow fails them instead of moving the traces.
type rankPow struct {
	y       float64
	general bool    // y takes pow's general path; otherwise pow calls math.Pow
	yi      int64   // integer part of |y|, after the fold below
	yf      float64 // fractional part of |y|, folded into (-0.5, 0.5]
}

// newRankPow does pow's y-only work: its special cases, Modf(|y|) and the
// fold. A y that pow answers before its general path is left to math.Pow.
func newRankPow(y float64) rankPow {
	k := rankPow{y: y}
	if y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) {
		return k
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		return k
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	k.general, k.yi, k.yf = true, int64(yi), yf
	return k
}

// pow returns n^y; logn must be math.Log(float64(n)).
func (k rankPow) pow(n int, logn float64) float64 {
	if !k.general {
		return math.Pow(float64(n), k.y)
	}
	if n == 1 {
		return 1
	}
	a1, ae := 1.0, 0
	if k.yf != 0 {
		a1 = math.Exp(k.yf * logn)
	}
	// Frexp of a positive normal float64, inlined.
	b := math.Float64bits(float64(n))
	x1, xe := math.Float64frombits(b&^(0x7ff<<52)|1022<<52), int(b>>52)-1022
	for i := k.yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if k.y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	// Ldexp(a1, ae) as one multiply: by a normal power of two, a product
	// that is itself normal is exact, as Ldexp's result is.
	if -1022 <= ae && ae <= 1023 {
		if r := a1 * math.Float64frombits(uint64(ae+1023)<<52); r >= 0x1p-1022 && r <= math.MaxFloat64 {
			return r
		}
	}
	return math.Ldexp(a1, ae)
}
