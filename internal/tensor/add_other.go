//go:build !amd64

package tensor

// haveAVX512 is false off amd64: add runs addGo.
const haveAVX512 = false

// addAVX512 exists off amd64 only so addAsm compiles; add never calls it.
func addAVX512(dst, v, w []float32) { panic("tensor: no AVX-512 kernel on this GOARCH") }
