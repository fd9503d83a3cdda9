package tensor

// haveAVX512 reports whether this CPU runs the AVX-512 sum kernel: read once
// at package init, never set elsewhere.
var haveAVX512 = cpuHasAVX512()

// addAVX512 writes v[i] + w[i] into dst[i], one 16-float VADDPS per block.
// len(dst) must be a multiple of 16, and v and w must have dst's length.
//
//go:noescape
func addAVX512(dst, v, w []float32)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the state components the OS saves and restores.
func xgetbv() (eax uint32)

// cpuHasAVX512 reports whether the CPU implements AVX-512 F, DQ and BW and
// the OS has enabled the opmask and ZMM state. internal/embedding's twin of
// this check chooses the fill kernel.
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
