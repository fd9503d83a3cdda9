package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// lilDigest hashes a matrix's shape and, row by row, its length and every
// (column, value bits) pair.
func lilDigest(l *LIL) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(l.Rows))
	put(uint64(l.Cols))
	for r := range l.ColIdx {
		put(uint64(len(l.ColIdx[r])))
		for i, c := range l.ColIdx[r] {
			put(uint64(c)<<32 | uint64(math.Float32bits(l.Vals[r][i])))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The digests were captured from the generators as they stood before the
// flat-backing rewrite (commit 2eaf164: map-based membership sets,
// append-and-sort FromCOO). Every exhibit, snapshot and benchmark input
// digest rests on the generators emitting the same matrices for a seed, so a
// change here is a change of workload, never an optimisation.
func TestGeneratorGoldenDigests(t *testing.T) {
	gens := map[string]func(seed int64) *LIL{
		"Banded":                func(s int64) *LIL { return Banded(300, 5, s) },
		"PowerLawGraph":         func(s int64) *LIL { return PowerLawGraph(400, 3, s) },
		"RandomUniform":         func(s int64) *LIL { return RandomUniform(200, 350, 0.02, s) },
		"SymmetricDiagDominant": func(s int64) *LIL { return SymmetricDiagDominant(250, 3, s) },
	}
	for _, g := range []struct {
		gen    string
		seed   int64
		digest string
	}{
		{"Banded", 1, "c96c16f70e6223f811d16bdc79f477a4ef40b8fa6c04e1c41b19562ba00a369d"},
		{"Banded", 7, "acbd43404346d6c2849de8dd2aa58d8a7c0f12c083c380063fa18e82553bf7cc"},
		{"Banded", 1001, "76d70c9ada7d5d06465de445292b4dc288cd8dcb2e7158095f67de1e811034df"},
		{"PowerLawGraph", 1, "cfc718c52a75c83c90b1184c656d14cf7dd97c6970cedd3f84caf00847fefe7a"},
		{"PowerLawGraph", 7, "dd09ba6085811c898ee84cb9d347e835c49425cc637391bd211acf6be18b5ab0"},
		{"PowerLawGraph", 1001, "45a526e1a09feb076797787ee36f72d673aac70dfecb839d75dc984e15585de9"},
		{"RandomUniform", 1, "18a6d16abdbec1405a5a7a879f9c8ae1f091152ff9a9cd5d0e893ab8b4a566d8"},
		{"RandomUniform", 7, "306b5440dc9e7b4ac3dfd21efb79968f418235b965405e34476f6b6112f0b252"},
		{"RandomUniform", 1001, "81dcf954776277cf8060fe8c6d073b7d73658438efc76a06c2ea940e140517b0"},
		{"SymmetricDiagDominant", 1, "b58129db9f8d4eca63a305ef427db22a5a5b6d255c3b7ac4f39545b257f1340f"},
		{"SymmetricDiagDominant", 7, "fe5dcc1bd4aac2a6f9008b349260e9af527a356900cc3b5bb887bfa44b96ac05"},
		{"SymmetricDiagDominant", 1001, "0f7483fd9e520d0b7fb694885826d901d8b9f30eb52ffa2c0c4c316f09ae6edd"},
	} {
		if got := lilDigest(gens[g.gen](g.seed)); got != g.digest {
			t.Errorf("%s seed %d: digest %s, want %s", g.gen, g.seed, got, g.digest)
		}
	}
}
