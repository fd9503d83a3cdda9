package dram

// Helpers only the tests call.

// RanksPerChannel reports the ranks attached to one channel.
func (c Config) RanksPerChannel() int {
	return c.DIMMsPerChannel * c.RanksPerDIMM
}

// MustEncode is Encode for callers with statically valid ranks; it panics
// on error.
func (c Config) MustEncode(globalRank int, slot uint64) Addr {
	a, err := c.Encode(globalRank, slot)
	if err != nil {
		panic(err)
	}
	return a
}
