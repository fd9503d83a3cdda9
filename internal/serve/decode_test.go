package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fafnir/internal/serve"
)

// clientBodies are the lookup bodies the project's clients send, encoded
// as each client encodes them.
func clientBodies(t *testing.T) map[string][]byte {
	t.Helper()
	// fafnir-loadgen's lookupRequest, for live traffic and -replay alike.
	type loadgenRequest struct {
		Indices   []uint64 `json:"indices"`
		Op        string   `json:"op,omitempty"`
		Priority  string   `json:"priority,omitempty"`
		TimeoutMS int      `json:"timeout_ms,omitempty"`
	}
	// benchmark/'s lookupBody: 8 queries x 16 indices over 4 Mi rows.
	type benchmarkBody struct {
		Queries [][]uint64 `json:"queries"`
		Op      string     `json:"op"`
	}
	bench := benchmarkBody{Op: "sum"}
	for qi := 0; qi < 8; qi++ {
		q := make([]uint64, 16)
		for i := range q {
			q[i] = uint64((qi*16+i)*2654435761) % (4 << 20)
		}
		bench.Queries = append(bench.Queries, q)
	}
	encoded := map[string]any{
		"fafnir-loadgen":              loadgenRequest{Indices: []uint64{3, 1, 4, 1, 5}},
		"fafnir-loadgen -mix":         loadgenRequest{Indices: []uint64{0, 131071}, Op: "mean", Priority: "low"},
		"fafnir-loadgen -replay":      loadgenRequest{Indices: []uint64{7}, Op: "max", Priority: "high", TimeoutMS: 250},
		"examples/serve":              map[string]any{"indices": []uint64{1, 2, 3, 4}},
		"benchmark serve_*":           bench,
		"benchmark serve_* 1 query":   benchmarkBody{Queries: [][]uint64{{9}}, Op: "sum"},
		"fafnir-loadgen normal, min":  loadgenRequest{Indices: []uint64{2, 2}, Op: "min", Priority: "normal"},
		"fafnir-loadgen op sum, high": loadgenRequest{Indices: []uint64{10, 20, 30}, Op: "sum", Priority: "high", TimeoutMS: 1},
	}
	bodies := map[string][]byte{
		// cmd/fafnir-serve's doc comment and README's curl examples.
		"fafnir-serve doc, indices": []byte(`{"indices":[1,2,3]}`),
		"fafnir-serve doc, queries": []byte(`{"queries":[[1,2],[3]],"op":"sum"}`),
		"README curl":               []byte(`{"indices": [1, 2, 3, 4]}`),
		"README curl debug=trace":   []byte(`{"indices":[1,2,3]}`),
	}
	for name, v := range encoded {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bodies[name] = body
	}
	return bodies
}

// TestClientBodiesTakeFastPath pins the purpose of the two-speed decoder:
// real traffic is not parsed by reflection. Every body shape a client of
// this project sends must take the hand-written path, with zero fallbacks,
// and decode there to what the json.Decoder reference makes of it.
func TestClientBodiesTakeFastPath(t *testing.T) {
	srv, err := serve.New(&fakeSystem{fakeBackend: newFake(), rows: 4 << 20}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	fallbacks := 0
	for name, body := range clientBodies(t) {
		if !serve.FastPath(body) {
			fallbacks++
			t.Errorf("%s: body %s takes the json.Decoder fallback", name, body)
		}
		got, timeout, err := srv.DecodeLookup(bytes.NewReader(body))
		want, wantTimeout, wantErr := srv.DecodeLookupReference(bytes.NewReader(body))
		if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) || timeout != wantTimeout {
			t.Errorf("%s: body %s decodes to %+v, %v (%v), the reference to %+v, %v (%v)",
				name, body, got, timeout, err, want, wantTimeout, wantErr)
		}
	}
	if fallbacks != 0 {
		t.Errorf("%d client bodies took the fallback, want 0", fallbacks)
	}
}

// TestLookupDecodeCorpusReachesBothPaths requires FuzzLookupDecode's
// checked-in corpus to exercise both speeds: canonical bodies the fast path
// takes, and corner cases it hands to the json.Decoder fallback.
func TestLookupDecodeCorpusReachesBothPaths(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzLookupDecode/*")
	if err != nil {
		t.Fatal(err)
	}
	fast, fallback := 0, 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is "go test fuzz v1" and one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		body, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if len(lines) != 2 || !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file (%v)", file, err)
		}
		if serve.FastPath([]byte(body)) {
			fast++
		} else {
			fallback++
		}
	}
	t.Logf("%d corpus bodies take the fast path, %d the fallback", fast, fallback)
	if fast < 10 || fallback < 10 {
		t.Errorf("corpus reaches the fast path %d times and the fallback %d times, want at least 10 each", fast, fallback)
	}
}
