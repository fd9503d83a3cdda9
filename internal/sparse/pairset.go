package sparse

import "math/bits"

// pairSet is an exact set of (row, column) coordinates for the generators'
// "already placed?" test: each pair packs into one uint64 and lives in an
// open-addressing table with linear probing. It never shrinks or deletes,
// and it is sized once for the number of pairs the generator can place.
type pairSet struct {
	slots []uint64 // packed pair + 1; 0 marks a free slot
	shift uint     // 64 - log2(len(slots))
}

// newPairSet returns a set that stays at most half full with n pairs, n >= 1.
func newPairSet(n int) *pairSet {
	logSize := bits.Len(uint(2 * n))
	return &pairSet{slots: make([]uint64, 1<<logSize), shift: uint(64 - logSize)}
}

// add inserts (r, c) and reports whether it was absent. Both coordinates
// are non-negative and below 2^31, like every index of a LIL.
func (s *pairSet) add(r, c int) bool {
	key := (uint64(r)<<32 | uint64(c)) + 1
	mask := uint64(len(s.slots) - 1)
	for i := key * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			return true
		case key:
			return false
		}
	}
}
