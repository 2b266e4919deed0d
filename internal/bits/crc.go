package bits

// CRC16 computes the CRC-16/CCITT-FALSE checksum of a bit slice, processing
// one bit at a time. Frames carry this checksum over the header and payload
// so the deframer can reject packets the demodulator got wrong; the BER
// experiments intentionally bypass it (they measure raw errors).
//
// Polynomial x^16 + x^12 + x^5 + 1 (0x1021), initial value 0xFFFF.
func CRC16(bs []byte) uint16 {
	var crc uint16 = 0xFFFF
	for _, b := range bs {
		in := uint16(b&1) << 15
		if (crc^in)&0x8000 != 0 {
			crc = crc<<1 ^ 0x1021
		} else {
			crc <<= 1
		}
	}
	return crc
}

// CheckCRC16 verifies that bs ends with the CRC16 of its prefix. It returns
// the prefix (payload without the 16 checksum bits) and whether the check
// passed. Slices shorter than 16 bits always fail.
func CheckCRC16(bs []byte) ([]byte, bool) {
	if len(bs) < 16 {
		return nil, false
	}
	body := bs[:len(bs)-16]
	want := ToUint16(bs[len(bs)-16:])
	return body, CRC16(body) == want
}
