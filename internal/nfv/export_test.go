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

// The reference pricer and validator (naive_test.go), the random
// embedding generator (property_test.go) and the race build flag, for
// the external tests.
var (
	ValidateNaive   = validateNaive
	CostNaive       = costNaive
	RandomEmbedding = randomEmbedding
)

const RaceDetector = raceDetector
