package frame

// Checksum computes CRC-16/CCITT-FALSE (polynomial 0x1021, initial value
// 0xFFFF, no reflection, no final XOR) over data — the classic two-byte
// "cyclic redundancy check" field of §III-A. Implemented bitwise from the
// polynomial so the package stays free of table-generation init work.
func Checksum(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = checksumUpdate(crc, b)
	}
	return crc
}

// checksumUpdate folds one byte into a running CRC-16/CCITT-FALSE, so
// AppendBits can checksum the length byte and payload without first
// copying them into one body buffer.
func checksumUpdate(crc uint16, b byte) uint16 {
	const poly = 0x1021
	crc ^= uint16(b) << 8
	for i := 0; i < 8; i++ {
		if crc&0x8000 != 0 {
			crc = crc<<1 ^ poly
		} else {
			crc <<= 1
		}
	}
	return crc
}
