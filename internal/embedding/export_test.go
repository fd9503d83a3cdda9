package embedding

// fillKernel is one implementation of fill, reached directly by the tests:
// it writes the row whose rowBase is base into dst.
type fillKernel struct {
	name string
	fill func(dst []float32, base uint64)
}

// fillKernels lists the fill kernels this CPU runs: the Go loop always, the
// AVX-512 one where haveAVX512 holds. Tests hold every one of them to
// Element, whichever fill chose.
func fillKernels() []fillKernel {
	ks := []fillKernel{{"go", func(dst []float32, base uint64) { fillGo(dst, base, 0) }}}
	if haveAVX512 {
		ks = append(ks, fillKernel{"asm", fillAsm})
	}
	return ks
}
