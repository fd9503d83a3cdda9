package serve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"fafnir"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/serve"
	"fafnir/internal/tensor"
)

// stdReply is what the lookup handler wrote before it appended its replies:
// json.NewEncoder(w).Encode(resp).
func stdReply(resp *serve.LookupResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// TestReplyMatchesEncodingJSON pins the 200 body of POST /v1/lookup to
// encoding/json's rendering of the same LookupResponse, byte for byte and
// trailing newline included: first on constructed replies covering every
// optional field and the float32 values whose text is easiest to get
// wrong, then on replies a served lookup actually wrote.
func TestReplyMatchesEncodingJSON(t *testing.T) {
	batch := serve.BatchInfo{Queries: 8, CoalescedRequests: 3, DRAMReads: 17, NaiveReads: 29, TotalCycles: 3456}
	isolated := batch
	isolated.Isolated = true
	const two24 = 1 << 24
	floats := tensor.Vector{
		0, float32(math.Copysign(0, -1)), 1, -1, 7, -8, 1.5, -0.25, 1.0 / 3, 0.1,
		1e-6, -1e-6, 1e-7, 9.99999e-7, 1e20, 1e21, -1e21, 1.5e21, 123456789,
		two24 - 1, -(two24 - 1), two24, -two24, two24 + 2, -(two24 + 2),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
		math.MaxFloat32, -math.MaxFloat32, 1e38, 5e-324, 2147483647, -2147483648,
	}
	wide := make([]tensor.Vector, 8)
	for q := range wide {
		wide[q] = make(tensor.Vector, 128)
		for i := range wide[q] {
			wide[q][i] = float32((q*131+i*7)%16 - 8)
		}
	}
	cases := map[string]serve.LookupResponse{
		"clean":       {Outputs: wide, Batch: batch},
		"isolated":    {Outputs: wide[:1], Batch: isolated},
		"nil outputs": {Batch: batch},
		"empty":       {Outputs: []tensor.Vector{}, Batch: batch},
		"nil vector":  {Outputs: []tensor.Vector{nil, {}, {1}}, Batch: batch},
		"mean":        {Outputs: []tensor.Vector{{0.5, -2.75, 1.0 / 3, 2.0 / 3, 0.1, -7.125}}, Batch: batch},
		"floats":      {Outputs: []tensor.Vector{floats}, Batch: batch},
		"degraded": {Outputs: wide[:3], Batch: batch, Degraded: &serve.DegradedInfo{
			PartialQueries: []int{0, 2},
			FailedRanks:    []int{3, 5},
			RemappedReads:  4,
			Retries:        2,
			Shards: []serve.ShardDegradedInfo{
				{Shard: 1, State: "dark", LostQueries: 1, LostIndices: 3, FailedRanks: []int{7}, Err: `fault: shard <1> & "replica" down`},
				{Shard: 2, State: "healthy", FailedOver: true},
			},
		}},
		"degraded empty": {Outputs: wide[:1], Batch: batch, Degraded: &serve.DegradedInfo{}},
		"trace": {Outputs: wide[:2], Batch: batch,
			Trace: json.RawMessage(`{ "traceEvents": [ {"name": "a<b", "ts": 1.50} ],
				"displayTimeUnit": "ns" }`),
			Breakdown: &serve.Breakdown{
				RequestID:   42,
				Queue:       serve.StageLatency{Cycles: 10, WallUS: 12.5},
				Backend:     serve.StageLatency{Cycles: 3000, WallUS: 1e-7},
				Combine:     serve.StageLatency{Cycles: 7, WallUS: 1e21},
				TotalCycles: 3017,
				TotalWallUS: 123.456,
			},
		},
	}
	enc := serve.NewReplyEncoder()
	for name, resp := range cases {
		want, err := stdReply(&resp)
		if err != nil {
			t.Fatalf("%s: encoding/json: %v", name, err)
		}
		got, err := enc.Encode(&resp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: reply differs from encoding/json\ngot  %s\nwant %s", name, got, want)
		}
	}

	// Served replies: the body must be what encoding/json writes for the
	// response it decodes to. float32 and the trace's compact text survive
	// the round trip exactly.
	served := func(name string, url, body string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s %v: %s", name, resp.Status, err, raw)
		}
		var lr serve.LookupResponse
		if err := json.Unmarshal(raw, &lr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := stdReply(&lr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s: served reply differs from encoding/json\ngot  %s\nwant %s", name, raw, want)
		}
	}
	_, clean := newTestServer(t, &fakeSystem{fakeBackend: newFake(), rows: 1 << 16}, serve.Config{})
	served("clean sum", clean.URL+"/v1/lookup", `{"queries": [[1,2,3],[4,5],[6]]}`)
	served("clean mean", clean.URL+"/v1/lookup", `{"queries": [[1,2,3],[4,5,9]], "op": "mean"}`)
	_, deg := newTestServer(t, &degradedSystem{
		fakeSystem: &fakeSystem{fakeBackend: newFake(), rows: 1 << 16},
		report: core.DegradedReport{
			FailedRanks: []int{5},
			LostQueries: []int{1},
			Shards:      []core.ShardDegraded{{Shard: 2, State: "dark", LostQueries: 1, LostIndices: 3, Err: "fault: <shard> down"}},
		},
	}, serve.Config{})
	served("degraded", deg.URL+"/v1/lookup", `{"queries": [[1,2],[3,4],[5]]}`)
	_, traced := newTestServer(t, testSystem(t, fafnir.SystemConfig{}), serve.Config{})
	served("debug trace", traced.URL+"/v1/lookup?debug=trace", `{"queries": [[1,2,3],[4,5]], "op": "mean"}`)
}

// FuzzReplyEncoding feeds arbitrary float32 bit patterns through the reply
// encoder: NaN and ±Inf must be refused, as encoding/json refuses them, and
// every other reply must match encoding/json byte for byte. The seed corpus
// lives in testdata/fuzz/FuzzReplyEncoding.
func FuzzReplyEncoding(f *testing.F) {
	enc := serve.NewReplyEncoder()
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8) {
		n := int(dim%16) + 1
		resp := serve.LookupResponse{Outputs: []tensor.Vector{}}
		for ; len(raw) >= 4; raw = raw[4:] {
			if len(resp.Outputs) == 0 || len(resp.Outputs[len(resp.Outputs)-1]) == n {
				resp.Outputs = append(resp.Outputs, make(tensor.Vector, 0, n))
			}
			last := &resp.Outputs[len(resp.Outputs)-1]
			*last = append(*last, math.Float32frombits(binary.LittleEndian.Uint32(raw)))
		}
		want, stdErr := stdReply(&resp)
		got, err := enc.Encode(&resp)
		switch {
		case stdErr != nil && err == nil:
			t.Fatalf("encoding/json refuses %v (%v), the reply encoder does not", resp.Outputs, stdErr)
		case stdErr == nil && err != nil:
			t.Fatalf("the reply encoder refuses %v: %v", resp.Outputs, err)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("reply differs from encoding/json\ngot  %s\nwant %s", got, want)
		}
	})
}

// infSystem answers every lookup with +Inf in its first output.
type infSystem struct{ *fakeSystem }

func (s infSystem) Lookup(b embedding.Batch) (*core.TimedResult, error) {
	res, err := s.fakeSystem.Lookup(b)
	if err == nil {
		res.Outputs[0][0] = float32(math.Inf(1))
	}
	return res, err
}

// TestServerUnencodableReply is a reply JSON cannot carry: it must be a 500
// of kind internal, counted as an error, never a 200 with an empty body.
func TestServerUnencodableReply(t *testing.T) {
	srv, ts := newTestServer(t, infSystem{&fakeSystem{fakeBackend: newFake(), rows: 1 << 16}}, serve.Config{})
	resp, decoded := postLookup(t, ts.URL, `{"indices": [1,2,3]}`)
	if resp.StatusCode != http.StatusInternalServerError || decoded["kind"] != "internal" {
		t.Fatalf("+Inf output answered %s %v, want 500 internal", resp.Status, decoded)
	}
	reqs := srv.Metrics().Requests
	if got := reqs.At(int(serve.OutcomeError)).Value(); got != 1 {
		t.Errorf("error outcomes = %d, want 1", got)
	}
	if got := reqs.At(int(serve.OutcomeOK)).Value(); got != 0 {
		t.Errorf("ok outcomes = %d, want 0", got)
	}
}
