package embedding

// haveAVX512 reports whether this CPU runs the AVX-512 fill kernel: read once
// at package init, never set elsewhere.
var haveAVX512 = cpuHasAVX512()

// fillAVX512 writes elements 0 to len(dst)-1 of the row whose rowBase is base
// into dst, eight per iteration: splitmix64 with VPMULLQ, the residue mod 17
// from the hash's byte sum (VPSADBW; 2^8 ≡ 1 mod 17) and a multiply-shift,
// then VCVTQQ2PS minus 8. len(dst) must be a multiple of 8.
//
//go:noescape
func fillAVX512(dst []float32, base uint64)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the state components the OS saves and restores.
func xgetbv() (eax uint32)

// cpuHasAVX512 reports whether the CPU implements AVX-512 F, DQ and BW and
// the OS has enabled the opmask and ZMM state. internal/tensor's twin of
// this check chooses the sum kernel.
func cpuHasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const sseAVXOpmaskZMM = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv()&sseAVXOpmaskZMM != sseAVXOpmaskZMM {
		return false
	}
	const f, dq, bw = 1 << 16, 1 << 17, 1 << 30
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(f|dq|bw) == f|dq|bw
}
