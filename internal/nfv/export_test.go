package nfv

import mathbits "math/bits"

// FingerprintFromBits recomputes net's deployment fingerprint from its
// bitset: the definition DeployFingerprint keeps incrementally.
func FingerprintFromBits(net *Network) uint64 {
	var fp uint64
	for w, word := range net.deployed {
		for ; word != 0; word &= word - 1 {
			fp ^= mixCell(w<<6 + mathbits.TrailingZeros64(word))
		}
	}
	return fp
}
