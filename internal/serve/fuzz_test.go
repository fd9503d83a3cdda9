package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fafnir/internal/serve"
)

// FuzzLookupRequest fuzzes the POST /v1/lookup body path (decode -> ParseOp
// -> ParsePriority -> parseQueries -> timeout). It must never panic; an
// accepted body yields in-range, in-bound queries and survives a re-encode /
// decode round trip; a rejected body is answered 400 bad_request. The seed
// corpus lives in testdata/fuzz/FuzzLookupRequest.
func FuzzLookupRequest(f *testing.F) {
	const rows, maxQueries = 1 << 16, 4
	srv, err := serve.New(&fakeSystem{fakeBackend: newFake(), rows: rows}, serve.Config{MaxQueriesPerRequest: maxQueries})
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
