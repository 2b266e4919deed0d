// Package bits provides bit-slice utilities shared by the ANC stack:
// packing and unpacking between bytes and bit slices, pseudo-random bit
// sequences (whitening per §6.2 of the paper and pilot generation per §7.2),
// CRC-16 integrity checks, and bit-error accounting.
//
// Throughout the module a "bit slice" is a []byte whose elements are 0 or 1,
// one bit per element. This representation trades memory for clarity: the
// modem and the interference decoder operate bit-by-bit, and profiling shows
// the per-sample complex arithmetic dominates end to end.
package bits

import "fmt"

// FromBytes expands packed bytes into a bit slice, most significant bit
// first. The result has len(data)*8 elements, each 0 or 1.
func FromBytes(data []byte) []byte {
	out := make([]byte, len(data)*8)
	PutBytes(out, data)
	return out
}

// PutBytes writes the bits of data MSB-first into dst, which must hold at
// least len(data)*8 entries.
func PutBytes(dst []byte, data []byte) {
	for j, b := range data {
		for i := 0; i < 8; i++ {
			dst[j*8+i] = (b >> uint(7-i)) & 1
		}
	}
}

// ToBytes packs a bit slice (MSB first) into bytes. The bit slice length
// must be a multiple of 8; ToBytes returns an error otherwise so framing
// bugs surface at the call site rather than as silent truncation.
func ToBytes(bs []byte) ([]byte, error) {
	out, err := ToBytesInto(nil, bs)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ToBytesInto is ToBytes writing into dst's storage, which grows only when
// its capacity is below len(bs)/8. On error it returns dst[:0].
func ToBytesInto(dst, bs []byte) ([]byte, error) {
	if len(bs)%8 != 0 {
		return dst[:0], fmt.Errorf("bits: length %d is not a multiple of 8", len(bs))
	}
	n := len(bs) / 8
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	for j := range dst {
		var v byte
		for k, b := range bs[8*j : 8*j+8] {
			if b > 1 {
				return dst[:0], fmt.Errorf("bits: element %d has non-binary value %d", 8*j+k, b)
			}
			v = v<<1 | b
		}
		dst[j] = v
	}
	return dst, nil
}

// FromUint16 returns the 16 bits of v, MSB first.
func FromUint16(v uint16) []byte {
	out := make([]byte, 16)
	PutUint16(out, v)
	return out
}

// PutUint16 writes v's 16 bits MSB-first into dst.
func PutUint16(dst []byte, v uint16) {
	for i := 0; i < 16; i++ {
		dst[i] = byte(v>>uint(15-i)) & 1
	}
}

// ToUint16 interprets the first 16 elements of bs (MSB first) as a uint16.
// It panics if bs has fewer than 16 elements.
func ToUint16(bs []byte) uint16 {
	var v uint16
	for i := 0; i < 16; i++ {
		v = v<<1 | uint16(bs[i]&1)
	}
	return v
}

// PutUint32 writes v's 32 bits MSB-first into dst.
func PutUint32(dst []byte, v uint32) {
	for i := 0; i < 32; i++ {
		dst[i] = byte(v>>uint(31-i)) & 1
	}
}

// ToUint32 interprets the first 32 elements of bs (MSB first) as a uint32.
// It panics if bs has fewer than 32 elements.
func ToUint32(bs []byte) uint32 {
	var v uint32
	for i := 0; i < 32; i++ {
		v = v<<1 | uint32(bs[i]&1)
	}
	return v
}

// Reverse returns a new bit slice with the elements of bs in reverse order.
// Bob's backward decoding (§7.4) reverses both samples and recovered bits.
func Reverse(bs []byte) []byte {
	out := make([]byte, len(bs))
	for i, b := range bs {
		out[len(bs)-1-i] = b
	}
	return out
}

// ReverseInPlace reverses bs in place and returns it.
func ReverseInPlace(bs []byte) []byte {
	for i, j := 0, len(bs)-1; i < j; i, j = i+1, j-1 {
		bs[i], bs[j] = bs[j], bs[i]
	}
	return bs
}

// ReverseGroupsInPlace reverses bs in units of group consecutive elements,
// preserving the order within each group, and returns bs. With group = 1
// it is ReverseInPlace. This is the bit-domain image of reading a frame
// off a time-reversed signal with a multi-bit-per-symbol modem: symbols
// come back in reverse order, but each symbol still decodes to its bits
// in transmit order (§7.4 generalized beyond 1 bit/symbol).
//
// The length must be a multiple of group; a remainder is a framing bug
// and panics rather than silently mis-splitting symbols.
func ReverseGroupsInPlace(bs []byte, group int) []byte {
	if group <= 1 {
		return ReverseInPlace(bs)
	}
	if len(bs)%group != 0 {
		panic(fmt.Sprintf("bits: length %d is not a multiple of group %d", len(bs), group))
	}
	for i, j := 0, len(bs)-group; i < j; i, j = i+group, j-group {
		for k := 0; k < group; k++ {
			bs[i+k], bs[j+k] = bs[j+k], bs[i+k]
		}
	}
	return bs
}

// Equal reports whether two bit slices are identical in length and content.
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HammingDistance counts positions where a and b differ. Slices must have
// equal length.
func HammingDistance(a, b []byte) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bits: hamming distance length mismatch %d != %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// BER returns the bit error rate between a transmitted and received bit
// slice: HammingDistance / length. If the received slice is shorter (e.g. a
// truncated decode) the missing tail counts as errors, matching how the
// paper's evaluation charges undelivered bits.
func BER(sent, got []byte) float64 {
	if len(sent) == 0 {
		return 0
	}
	n := len(got)
	if n > len(sent) {
		n = len(sent)
	}
	errs := len(sent) - n // missing bits count as errors
	for i := 0; i < n; i++ {
		if sent[i] != got[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(sent))
}

// OnesCount returns the number of 1 bits in bs.
func OnesCount(bs []byte) int {
	n := 0
	for _, b := range bs {
		if b&1 == 1 {
			n++
		}
	}
	return n
}
