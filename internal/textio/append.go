package textio

import (
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"
)

// The append helpers render the fixed-width fields of a text record
// into a byte slice, each byte-identical to the fmt verb it replaces.
// fmt boxes every argument and, for a float with a precision, takes
// strconv's multiprecision path; a receptor's PDBQT is thousands of
// such lines.

// maxFixedPrec is the largest precision AppendFixed renders itself.
const maxFixedPrec = 6

var (
	pow10 = [maxFixedPrec + 1]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}
	// fixedLimit[p] is ⌊2⁶³/10ᵖ⌋ rounded to a float64. Every float64
	// below it is below ⌊2⁶³/10ᵖ⌋ itself, so its v·10ᵖ is below 2⁶³.
	fixedLimit [maxFixedPrec + 1]float64
)

func init() {
	for p, d := range pow10 {
		fixedLimit[p] = float64(uint64(1<<63) / d)
	}
}

// AppendFixed appends v formatted as fmt's %{width}.{prec}f: strconv's
// 'f' rendering of v at prec digits, right-aligned in width runes.
//
// A finite v is m·2ᵉ with m < 2⁵³, so v·10ᵖ = (m·10ᵖ)·2ᵉ, and m·10ᵖ is
// exact in 128 bits. Shifting it right by −e and rounding half to even
// on the bits shifted out is exactly the decimal rounding strconv
// applies to v's exact expansion, and the point is inserted into the
// integer that results. NaN, ±Inf, |v| ≥ 2⁶³/10ᵖ and prec outside
// 0…6 go through strconv instead.
func AppendFixed(dst []byte, v float64, width, prec int) []byte {
	var buf [32]byte
	num := fixed(buf[:0], v, prec)
	return appendPadded(dst, num, width-len(num))
}

// fixed renders v at prec digits after the point, unpadded.
func fixed(dst []byte, v float64, prec int) []byte {
	if prec < 0 || prec > maxFixedPrec {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	b := math.Float64bits(v)
	neg := b>>63 != 0
	abs := math.Abs(v)
	if !(abs < fixedLimit[prec]) { // NaN and ±Inf fail this too
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	m := b & (1<<52 - 1)
	e := int(b>>52&0x7ff) - 1075
	if e == -1075 {
		e = -1074 // subnormal: no implicit bit
	} else {
		m |= 1 << 52
	}
	hi, lo := bits.Mul64(m, pow10[prec])
	var n uint64
	switch {
	case e >= 0:
		n = lo << uint(e) // hi is 0: |v|·10ᵖ < 2⁶³
	case e > -64:
		s := uint(-e)
		n = lo>>s | hi<<(64-s)
		rem, half := lo&(1<<s-1), uint64(1)<<(s-1)
		if rem > half || rem == half && n&1 == 1 {
			n++
		}
	case e > -128:
		s := uint(-e) - 64 // shift of hi; the remainder is hi's low s bits : lo
		n = hi >> s
		remHi := hi & (1<<s - 1)
		var halfHi, halfLo uint64
		if s == 0 {
			halfLo = 1 << 63
		} else {
			halfHi = 1 << (s - 1)
		}
		if remHi > halfHi || remHi == halfHi && (lo > halfLo || lo == halfLo && n&1 == 1) {
			n++
		}
	default:
		// m·10ᵖ < 2⁷³ is below half of 2¹²⁸: v·10ᵖ rounds to 0.
	}
	if neg {
		dst = append(dst, '-')
	}
	if prec == 0 {
		return strconv.AppendUint(dst, n, 10)
	}
	ip, fp := n/pow10[prec], n%pow10[prec]
	var frac [maxFixedPrec]byte
	for i := prec - 1; i >= 0; i-- {
		frac[i] = byte('0' + fp%10)
		fp /= 10
	}
	dst = strconv.AppendUint(dst, ip, 10)
	dst = append(dst, '.')
	return append(dst, frac[:prec]...)
}

// AppendInt appends v formatted as fmt's %{width}d.
func AppendInt(dst []byte, v, width int) []byte {
	var buf [24]byte
	num := strconv.AppendInt(buf[:0], int64(v), 10)
	return appendPadded(dst, num, width-len(num))
}

// AppendRight appends s formatted as fmt's %{width}s: right-aligned,
// padded with spaces to width runes, never truncated.
func AppendRight(dst []byte, s string, width int) []byte {
	for n := width - utf8.RuneCountInString(s); n > 0; n-- {
		dst = append(dst, ' ')
	}
	return append(dst, s...)
}

// AppendLeft appends s formatted as fmt's %-{width}s: left-aligned,
// padded with spaces to width runes, never truncated.
func AppendLeft(dst []byte, s string, width int) []byte {
	dst = append(dst, s...)
	for n := width - utf8.RuneCountInString(s); n > 0; n-- {
		dst = append(dst, ' ')
	}
	return dst
}

// appendPadded appends pad spaces (none if pad ≤ 0), then num.
func appendPadded(dst, num []byte, pad int) []byte {
	for ; pad > 0; pad-- {
		dst = append(dst, ' ')
	}
	return append(dst, num...)
}
