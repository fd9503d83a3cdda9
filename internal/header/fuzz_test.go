package header

import (
	"testing"
)

// FuzzCodec feeds raw bytes to Unpack under the paper's codec and checks the
// robustness contract of the wire format: decoding never panics, any header
// the decoder accepts fits the hardware payload budget (so Pack re-encodes
// it), and the re-encoding round-trips to an equal header. Run with
//
//	go test -fuzz=FuzzCodec ./internal/header
//
// The seed corpus covers the empty header, a leaf header, a reduced header,
// and a few corrupt encodings.
func FuzzCodec(f *testing.F) {
	c := PaperCodec()
	seed := []Header{
		{},
		NewLeaf(3, []IndexSet{NewIndexSet(1, 2)}),
		{Indices: NewIndexSet(0, 5, 9), Queries: []IndexSet{NewIndexSet(4), {}}},
	}
	for _, h := range seed {
		if data, err := c.Pack(h); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := c.Unpack(data)
		if err != nil {
			return // corrupt inputs must error, never panic — reaching here is the check
		}
		repacked, err := c.Pack(h)
		if err != nil {
			t.Fatalf("Unpack accepted %x as %v but Pack rejects it: %v", data, h, err)
		}
		h2, err := c.Unpack(repacked)
		if err != nil {
			t.Fatalf("re-encoding of %v does not decode: %v", h, err)
		}
		if !sameHeader(h2, h) {
			t.Fatalf("round trip changed header: %v -> %v", h, h2)
		}
	})
}
