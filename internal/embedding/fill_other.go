//go:build !amd64

package embedding

// haveAVX512 is false off amd64: fill runs fillGo.
const haveAVX512 = false

// fillAVX512 exists off amd64 only so fillAsm compiles; fill never calls it.
func fillAVX512(dst []float32, base uint64) {
	panic("embedding: no AVX-512 kernel on this GOARCH")
}
