package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fafnir/internal/serve"
)

// FuzzLookupRequest fuzzes the POST /v1/lookup body path (decode -> ParseOp
// -> ParsePriority -> query sets -> timeout). It must never panic; an
// accepted body yields in-range, in-bound queries and survives a re-encode /
// decode round trip; a rejected body is answered 400 bad_request. The seed
// corpus lives in testdata/fuzz/FuzzLookupRequest.
func FuzzLookupRequest(f *testing.F) {
	// One-query hardware batches hold a request to MaxRequestBatches queries.
	const rows, maxQueries = 1 << 16, serve.MaxRequestBatches
	srv, err := serve.New(&fakeSystem{fakeBackend: newFake(), rows: rows}, serve.Config{BatchCapacity: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Drain(context.Background()) })

	f.Fuzz(func(t *testing.T, body []byte) {
		got, timeout, err := srv.DecodeLookup(bytes.NewReader(body))
		if err != nil {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup", bytes.NewReader(body)))
			var wire serve.ErrorResponse
			if uerr := json.Unmarshal(rec.Body.Bytes(), &wire); uerr != nil || rec.Code != http.StatusBadRequest || wire.Kind != "bad_request" {
				t.Fatalf("body %q rejected (%v) but answered %d %s", body, err, rec.Code, rec.Body)
			}
			return
		}

		if n := len(got.Queries); n == 0 || n > maxQueries {
			t.Fatalf("body %q accepted with %d queries, want 1..%d", body, n, maxQueries)
		}
		if timeout <= 0 {
			t.Fatalf("body %q accepted with timeout %v", body, timeout)
		}
		again := serve.LookupRequest{
			Op:        got.Op.String(),
			Priority:  got.Priority.String(),
			TimeoutMS: int(timeout / time.Millisecond),
		}
		for qi, q := range got.Queries {
			if q.Indices.Len() == 0 {
				t.Fatalf("body %q accepted with empty query %d", body, qi)
			}
			raw := make([]uint64, 0, q.Indices.Len())
			for _, idx := range q.Indices {
				if uint64(idx) >= rows {
					t.Fatalf("body %q accepted with index %d >= %d rows", body, idx, rows)
				}
				raw = append(raw, uint64(idx))
			}
			again.Queries = append(again.Queries, raw)
		}
		encoded, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		back, backTimeout, err := srv.DecodeLookup(bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("body %q accepted, but its re-encoding %s is rejected: %v", body, encoded, err)
		}
		if !reflect.DeepEqual(back, got) || backTimeout != timeout {
			t.Fatalf("body %q round trip through %s:\ngot  %+v\nwant %+v", body, encoded, back, got)
		}
	})
}

// FuzzLookupDecode holds the lookup decoder to its json.Decoder fallback
// (DecodeLookupReference), body by body: both must accept or both refuse,
// with the same error text, and on accept they must build identical requests
// and timeouts. A body the fast path takes is so checked against the
// reference; one it hands over is the reference's by construction. Each
// reads through the handler's http.MaxBytesReader, so a body past
// maxBodyBytes is refused by both. The seed corpus lives in
// testdata/fuzz/FuzzLookupDecode and reaches both paths
// (TestLookupDecodeCorpusReachesBothPaths); the two bodies at the size bound,
// one accepted and one a byte over, are added here.
func FuzzLookupDecode(f *testing.F) {
	const rows = 1 << 16
	srv, err := serve.New(&fakeSystem{fakeBackend: newFake(), rows: rows}, serve.Config{BatchCapacity: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Drain(context.Background()) })
	// The two bodies at the size bound replay with the corpus; a -fuzz run
	// leaves them out, since the engine mutates a megabyte input at a
	// handful of executions a second.
	if fuzz := flag.Lookup("test.fuzz"); fuzz == nil || fuzz.Value.String() == "" {
		atBound := bytes.Repeat([]byte{' '}, serve.MaxBodyBytes)
		copy(atBound, `{"indices":[1]}`)
		f.Add(atBound)
		f.Add(append(atBound, ' '))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		limited := func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), serve.MaxBodyBytes)
		}
		got, timeout, err := srv.DecodeLookup(limited())
		want, wantTimeout, wantErr := srv.DecodeLookupReference(limited())
		switch {
		case err != nil && wantErr == nil:
			t.Fatalf("body %q: refused (%v), the reference accepts it as %+v", body, err, want)
		case err == nil && wantErr != nil:
			t.Fatalf("body %q: accepted as %+v, the reference refuses it (%v)", body, got, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("body %q: refused with\n%v\nthe reference refuses it with\n%v", body, err, wantErr)
		case err == nil && (!reflect.DeepEqual(got, want) || timeout != wantTimeout):
			t.Fatalf("body %q:\ngot  %+v, timeout %v\nwant %+v, timeout %v", body, got, timeout, want, wantTimeout)
		}
	})
}
