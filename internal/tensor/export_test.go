package tensor

// sumKernel is one implementation of add, reached directly by the tests.
type sumKernel struct {
	name string
	add  func(dst, v, w Vector)
}

// sumKernels lists the sum kernels this CPU runs: the Go loop always, the
// AVX-512 one where haveAVX512 holds. Tests hold every one of them to the
// scalar rule, whichever add chose.
func sumKernels() []sumKernel {
	ks := []sumKernel{{"go", addGo}}
	if haveAVX512 {
		ks = append(ks, sumKernel{"asm", addAsm})
	}
	return ks
}
