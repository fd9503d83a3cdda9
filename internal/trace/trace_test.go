package trace

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

func sample() Workload {
	return Workload{
		{Op: "sum", Indices: []uint64{1, 2, 5}},
		{Op: "sum", Indices: []uint64{2, 5}},
		{Op: "sum", Indices: []uint64{7}},
	}
}

func TestRoundTrip(t *testing.T) {
	// A capture as loadgen makes one: offsets out of order, lanes and
	// deadlines on some requests, the default op left out.
	w := Workload{
		{TUS: 900, Indices: []uint64{4, 4, 9}, Lane: "low", TimeoutMS: 250},
		{TUS: 20, Op: "mean", Indices: []uint64{1}},
		{TUS: 20, Op: "max", Indices: []uint64{1 << 40}, Lane: "high"},
	}
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("saved %d lines for 3 requests:\n%s", lines, buf.String())
	}
	got, err := Load("w.jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by arrival, ties in the order given; Save sorted w the same way.
	if !reflect.DeepEqual(got, w) || got[0].Op != "mean" || got[1].Op != "max" || got[2].TUS != 900 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.jsonl")
	if err := SaveFile(path, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil || !reflect.DeepEqual(got, sample()) {
		t.Fatalf("LoadFile = %+v, %v", got, err)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("a missing file loaded")
	}
	if err := SaveFile(filepath.Join(path, "under-a-file"), sample()); err == nil {
		t.Fatal("saved under a path that is a file")
	}
	if err := SaveFile(path, Workload{{}}); err == nil {
		t.Fatal("invalid workload saved to a file")
	}
}

func TestFromBatchAndBack(t *testing.T) {
	b := embedding.Batch{
		Queries: []embedding.Query{
			{Indices: header.NewIndexSet(3, 9)},
			{Indices: header.NewIndexSet(1)},
		},
		Op: tensor.OpMean,
	}
	back, rows, err := FromBatch(b).Batch()
	if err != nil {
		t.Fatal(err)
	}
	if back.Op != tensor.OpMean {
		t.Fatalf("op lost: %v", back.Op)
	}
	if rows != 10 {
		t.Fatalf("row space %d, want one past the largest index, 10", rows)
	}
	for i := range b.Queries {
		if !back.Queries[i].Indices.Equal(b.Queries[i].Indices) {
			t.Fatalf("query %d lost", i)
		}
	}
}

func TestAllOpsRoundTrip(t *testing.T) {
	for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpMax, tensor.OpMean} {
		b := embedding.Batch{Queries: []embedding.Query{{Indices: header.NewIndexSet(1)}}, Op: op}
		back, _, err := FromBatch(b).Batch()
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if back.Op != op {
			t.Fatalf("op %v became %v", op, back.Op)
		}
	}
}

// badRequests are requests a server would answer with a 400; the loader, the
// saver and Batch all refuse them.
var badRequests = map[string]Request{
	"no indices":       {Op: "sum"},
	"unknown op":       {Op: "median", Indices: []uint64{1}},
	"unknown lane":     {Lane: "urgent", Indices: []uint64{1}},
	"negative t_us":    {TUS: -1, Indices: []uint64{1}},
	"negative timeout": {TimeoutMS: -5, Indices: []uint64{1}},
}

func TestValidateRejects(t *testing.T) {
	for name, r := range badRequests {
		if _, _, err := (Workload{sample()[0], r}).Batch(); err == nil || !strings.Contains(err.Error(), "request 1") {
			t.Errorf("%s: Batch error %v, want one naming request 1", name, err)
		}
	}
	if _, _, err := (Workload{}).Batch(); err == nil {
		t.Error("empty workload gathered into a batch")
	}
	if _, err := (Workload{}).Stats(); err == nil {
		t.Error("empty workload has stats")
	}
	// Valid as a stream, not as one batch: two pooling ops, or an index
	// beyond the engines' 32-bit row space.
	if _, _, err := (Workload{{Indices: []uint64{1}}, {Op: "max", Indices: []uint64{1}}}).Batch(); err == nil {
		t.Error("a batch mixing sum and max accepted")
	}
	if _, _, err := (Workload{{Indices: []uint64{1 << 32}}}).Batch(); err == nil {
		t.Error("an index past 32 bits accepted into a batch")
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil); err == nil {
		t.Error("empty workload saved")
	}
	for name, r := range badRequests {
		if err := Save(&buf, Workload{r}); err == nil {
			t.Errorf("%s: saved", name)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused save wrote %q", buf.String())
	}
}

// Every case here loaded clean at 4466f92, through trace.Load (trailing
// data, unknown fields) or through loadgen's loadRecorded (the rest), and
// then failed request by request at replay time.
func TestLoadRejectsGarbage(t *testing.T) {
	const ok = `{"t_us":0,"indices":[1]}` + "\n"
	for name, tc := range map[string]struct{ in, want string }{
		"not json":         {"{nope\n", "w.jsonl:1:"},
		"empty":            {"\n  \n", "empty workload"},
		"trailing object":  {ok + `{"t_us":1,"indices":[2]} {"garbage":true} xyz` + "\n", "w.jsonl:2: trailing data"},
		"trailing brace":   {`{"t_us":1,"indices":[2]} }` + "\n", "w.jsonl:1: trailing data"},
		"unknown field":    {ok + "\n" + `{"t_us":1,"indices":[2],"rows":9}` + "\n", `w.jsonl:3: json: unknown field "rows"`},
		"v1 document":      {`{"version":1,"op":"sum","rows":10,"queries":[[1]]}` + "\n", "w.jsonl:1:"},
		"no indices":       {ok + `{"t_us":1}` + "\n", "w.jsonl:2: request carries no indices"},
		"unknown op":       {`{"t_us":1,"op":"median","indices":[2]}` + "\n", `w.jsonl:1: tensor: unknown pooling op "median"`},
		"unknown lane":     {`{"t_us":1,"lane":"urgent","indices":[2]}` + "\n", `w.jsonl:1: unknown lane "urgent"`},
		"negative t_us":    {`{"t_us":-1,"indices":[2]}` + "\n", "w.jsonl:1: negative t_us -1"},
		"negative timeout": {`{"t_us":1,"timeout_ms":-3,"indices":[2]}` + "\n", "timeout_ms -3"},
		"negative index":   {`{"t_us":1,"indices":[-2]}` + "\n", "w.jsonl:1:"},
	} {
		w, err := Load("w.jsonl", strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load = %+v, %v; want an error mentioning %q", name, w, err, tc.want)
		}
	}
	// A read error comes back under the file's name too.
	if _, err := Load("w.jsonl", iotest.ErrReader(errors.New("disk on fire"))); err == nil || !strings.Contains(err.Error(), "w.jsonl: disk on fire") {
		t.Errorf("read error: %v", err)
	}
}

func TestStats(t *testing.T) {
	s, err := sample().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumQueries != 3 || s.TotalAccesses != 6 || s.UniqueIndices != 4 || s.MaxQuerySize != 3 || s.Op != tensor.OpSum {
		t.Fatalf("stats %+v", s)
	}
	if s.UniqueFraction <= 0.6 || s.UniqueFraction >= 0.7 {
		t.Fatalf("unique fraction %v", s.UniqueFraction)
	}
}

func TestDuplicateIndicesCoalesced(t *testing.T) {
	b, rows, err := (Workload{{Indices: []uint64{3, 3, 4}}}).Batch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Queries[0].Indices.Len() != 2 || rows != 5 {
		t.Fatalf("duplicates not coalesced: %v in a row space of %d", b.Queries[0].Indices, rows)
	}
}

// FuzzLoadWorkload: the loader never panics, and whatever it accepts is a
// workload the saver accepts and that loads back equal.
func FuzzLoadWorkload(f *testing.F) {
	for _, s := range []string{
		"",
		`{"t_us":0,"indices":[1]}`,
		`{"t_us":7,"op":"mean","indices":[3,3,18446744073709551615],"lane":"low","timeout_ms":40}` + "\n\n" + `{"t_us":2,"indices":[0]}`,
		`{"t_us":1,"indices":[2]} {"garbage":true} xyz`,
		`{"t_us":1,"indices":[2],"rows":9}`,
		`{"version":1,"op":"sum","rows":10,"queries":[[1]]}`,
		`{"t_us":-1,"indices":[2]}`,
		`{"t_us":1,"op":"median","lane":"urgent","timeout_ms":-1,"indices":[]}`,
		`{"t_us":1e3,"indices":[2]}`,
		"{nope",
		`[{"t_us":0,"indices":[1]}]`,
		"null",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := Load("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Save(&buf, w); err != nil {
			t.Fatalf("Load accepted %q but Save refuses it: %v", data, err)
		}
		again, err := Load("fuzz", &buf)
		if err != nil || !reflect.DeepEqual(again, w) {
			t.Fatalf("%q loaded as %+v, saved and loaded back as %+v, %v", data, w, again, err)
		}
	})
}
