package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refFromCOO is FromCOO as it stood before the counting sort: a hash set
// finds duplicates, entries are appended row by row, and every row is
// sorted through an index permutation. It is kept as the reference the
// counting sort is compared against.
func refFromCOO(m *COO) (*LIL, error) {
	if m.Rows <= 0 || m.Cols <= 0 {
		return nil, fmt.Errorf("sparse: bad shape %dx%d", m.Rows, m.Cols)
	}
	seen := make(map[[2]int]bool, len(m.Entries))
	for _, e := range m.Entries {
		if e.Row < 0 || e.Row >= m.Rows || e.Col < 0 || e.Col >= m.Cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, m.Rows, m.Cols)
		}
		key := [2]int{e.Row, e.Col}
		if seen[key] {
			return nil, fmt.Errorf("sparse: duplicate entry (%d,%d)", e.Row, e.Col)
		}
		seen[key] = true
	}
	l := NewLIL(m.Rows, m.Cols)
	for _, e := range m.Entries {
		l.ColIdx[e.Row] = append(l.ColIdx[e.Row], int32(e.Col))
		l.Vals[e.Row] = append(l.Vals[e.Row], e.Val)
	}
	for r := range l.ColIdx {
		cols, vals := l.ColIdx[r], l.Vals[r]
		order := make([]int, len(cols))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return cols[order[i]] < cols[order[j]] })
		sc := make([]int32, len(cols))
		sv := make([]float32, len(vals))
		for i, o := range order {
			sc[i], sv[i] = cols[o], vals[o]
		}
		l.ColIdx[r], l.Vals[r] = sc, sv
	}
	return l, nil
}

// errKind names the check an error came from.
func errKind(err error) string {
	for _, kind := range []string{"bad shape", "outside", "duplicate"} {
		if err != nil && strings.Contains(err.Error(), kind) {
			return kind
		}
	}
	return ""
}

// sameMatrix compares shape and every row's length, columns and value bits.
func sameMatrix(a, b *LIL) error {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.ColIdx) != len(b.ColIdx) || len(a.Vals) != len(b.Vals) {
		return fmt.Errorf("shape %dx%d (%d rows stored) against %dx%d (%d)", a.Rows, a.Cols, len(a.ColIdx), b.Rows, b.Cols, len(b.ColIdx))
	}
	for r := range a.ColIdx {
		if len(a.ColIdx[r]) != len(b.ColIdx[r]) || len(a.Vals[r]) != len(b.Vals[r]) || len(a.ColIdx[r]) != len(a.Vals[r]) {
			return fmt.Errorf("row %d: %d cols/%d vals against %d/%d", r, len(a.ColIdx[r]), len(a.Vals[r]), len(b.ColIdx[r]), len(b.Vals[r]))
		}
		for i := range a.ColIdx[r] {
			if a.ColIdx[r][i] != b.ColIdx[r][i] || math.Float32bits(a.Vals[r][i]) != math.Float32bits(b.Vals[r][i]) {
				return fmt.Errorf("row %d entry %d: (%d,%v) against (%d,%v)", r, i, a.ColIdx[r][i], a.Vals[r][i], b.ColIdx[r][i], b.Vals[r][i])
			}
		}
	}
	return nil
}

// checkAgainstRef builds m both ways. The two must accept and reject the
// same inputs and build the same matrix; which defect an input with several
// is rejected for may differ (the reference stops at the first bad entry in
// input order, the counting sort checks every bound before any duplicate).
func checkAgainstRef(m *COO) error {
	got, gotErr := FromCOO(m)
	want, wantErr := refFromCOO(m)
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("FromCOO error %v, reference error %v", gotErr, wantErr)
	}
	if validErr := m.Validate(); (validErr == nil) != (gotErr == nil) {
		return fmt.Errorf("Validate error %v, FromCOO error %v", validErr, gotErr)
	}
	if gotErr != nil {
		if errKind(gotErr) == "" {
			return fmt.Errorf("unclassified error %v", gotErr)
		}
		return nil
	}
	return sameMatrix(got, want)
}

// toShuffledCOO lists a matrix's entries in random order.
func toShuffledCOO(l *LIL, rng *rand.Rand) *COO {
	coo := &COO{Rows: l.Rows, Cols: l.Cols}
	for r := range l.ColIdx {
		for i, c := range l.ColIdx[r] {
			coo.Entries = append(coo.Entries, Coord{Row: r, Col: int(c), Val: l.Vals[r][i]})
		}
	}
	rng.Shuffle(len(coo.Entries), func(i, j int) {
		coo.Entries[i], coo.Entries[j] = coo.Entries[j], coo.Entries[i]
	})
	return coo
}

func TestFromCOOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for name, l := range map[string]*LIL{
		"banded":   Banded(90, 4, 2),
		"graph":    PowerLawGraph(150, 3, 3),
		"uniform":  RandomUniform(70, 210, 0.03, 4),
		"spd":      SymmetricDiagDominant(64, 2, 5),
		"one-cell": RandomUniform(1, 1, 1, 6),
		"one-row":  RandomUniform(1, 300, 0.2, 7),
		"one-col":  RandomUniform(300, 1, 0.2, 8),
	} {
		coo := toShuffledCOO(l, rng)
		if err := checkAgainstRef(coo); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// The same triplets with one defect each: both builders must refuse
		// them for the same reason.
		n := len(coo.Entries)
		dup := coo.Entries[rng.Intn(n)]
		dup.Val++
		for kind, bad := range map[string]*COO{
			"duplicate": {Rows: coo.Rows, Cols: coo.Cols, Entries: append(coo.Entries[:n:n], dup)},
			"outside":   {Rows: coo.Rows, Cols: coo.Cols, Entries: append(coo.Entries[:n:n], Coord{Row: coo.Rows, Col: 0, Val: 1})},
			"bad shape": {Rows: coo.Rows, Cols: 0, Entries: coo.Entries},
		} {
			_, gotErr := FromCOO(bad)
			_, wantErr := refFromCOO(bad)
			if errKind(gotErr) != kind || errKind(wantErr) != kind {
				t.Errorf("%s with a %s defect: FromCOO said %v, reference %v", name, kind, gotErr, wantErr)
			}
		}
	}
}

// Rejections name a coordinate that really is at fault, whichever of several
// the builder meets first.
func TestFromCOOErrorsNameACoordinate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		coo     COO
		kind    string
		anyOf   []string
		wantRow []int // row lengths when the matrix is valid
	}{
		{
			name: "several duplicates",
			coo: COO{Rows: 3, Cols: 4, Entries: []Coord{
				{2, 3, 1}, {0, 1, 1}, {1, 2, 1}, {0, 1, 2}, {2, 3, 5}, {1, 0, 1}, {2, 3, 7},
			}},
			kind:  "duplicate",
			anyOf: []string{"(0,1)", "(2,3)"},
		},
		{
			name:  "negative row",
			coo:   COO{Rows: 3, Cols: 4, Entries: []Coord{{0, 0, 1}, {-1, 2, 1}, {1, 1, 1}}},
			kind:  "outside",
			anyOf: []string{"(-1,2)"},
		},
		{
			name:  "negative column among duplicates",
			coo:   COO{Rows: 3, Cols: 4, Entries: []Coord{{0, 0, 1}, {0, 0, 2}, {2, -3, 1}}},
			anyOf: []string{"(2,-3)", "(0,0)"},
		},
		{
			name:  "column past the edge",
			coo:   COO{Rows: 3, Cols: 4, Entries: []Coord{{1, 4, 1}}},
			kind:  "outside",
			anyOf: []string{"(1,4)"},
		},
		{
			name:    "empty rows",
			coo:     COO{Rows: 4, Cols: 3, Entries: []Coord{{2, 1, 5}, {0, 2, 3}, {2, 0, 4}}},
			wantRow: []int{1, 0, 2, 0},
		},
		{
			name:    "no entries",
			coo:     COO{Rows: 2, Cols: 2},
			wantRow: []int{0, 0},
		},
	} {
		l, err := FromCOO(&tc.coo)
		if tc.wantRow != nil {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
				continue
			}
			for r, want := range tc.wantRow {
				if len(l.ColIdx[r]) != want || len(l.Vals[r]) != want {
					t.Errorf("%s: row %d holds %d cols, %d vals, want %d", tc.name, r, len(l.ColIdx[r]), len(l.Vals[r]), want)
				}
			}
			if _, err := l.MulVec(DenseVector(tc.coo.Cols, 1)); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.kind != "" && errKind(err) != tc.kind {
			t.Errorf("%s: %v, want a %q error", tc.name, err, tc.kind)
		}
		named := false
		for _, coord := range tc.anyOf {
			named = named || strings.Contains(err.Error(), coord)
		}
		if !named {
			t.Errorf("%s: %v names none of %v", tc.name, err, tc.anyOf)
		}
	}
}

func TestEntryCountLimit(t *testing.T) {
	if err := entryCountError(math.MaxInt32); err != nil {
		t.Fatalf("%d entries refused: %v", math.MaxInt32, err)
	}
	if err := entryCountError(math.MaxInt32 + 1); err == nil {
		t.Fatal("more entries than int32 row pointers can index accepted")
	}
}

// A row of the flat backing must not grow into its neighbour.
func TestFromCOORowsAreCapacityClipped(t *testing.T) {
	l, err := FromCOO(&COO{Rows: 2, Cols: 4, Entries: []Coord{{0, 1, 1}, {1, 0, 2}, {1, 3, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	l.ColIdx[0] = append(l.ColIdx[0], 2)
	l.Vals[0] = append(l.Vals[0], 9)
	if l.ColIdx[1][0] != 0 || l.Vals[1][0] != 2 {
		t.Fatalf("append to row 0 overwrote row 1: %v %v", l.ColIdx[1], l.Vals[1])
	}
}

// cooFromBytes decodes a fuzz input: a shape of at most 8x8, then triplets
// whose coordinates reach one step outside the shape on either side, so
// duplicates, negative and too-large indices all occur.
func cooFromBytes(data []byte) *COO {
	if len(data) < 2 {
		return &COO{}
	}
	m := &COO{Rows: int(data[0] % 9), Cols: int(data[1] % 9)}
	for i := 2; i+2 < len(data); i += 3 {
		m.Entries = append(m.Entries, Coord{
			Row: int(data[i])%(m.Rows+2) - 1,
			Col: int(data[i+1])%(m.Cols+2) - 1,
			Val: float32(int8(data[i+2])),
		})
	}
	return m
}

func FuzzFromCOO(f *testing.F) {
	f.Add([]byte{3, 3, 1, 1, 5, 2, 3, 7, 1, 2, 9})          // valid, unsorted
	f.Add([]byte{2, 5, 1, 1, 5, 1, 1, 6})                   // duplicate
	f.Add([]byte{2, 2, 0, 1, 5})                            // negative row
	f.Add([]byte{0, 4, 1, 1, 1})                            // bad shape
	f.Add([]byte{8, 8, 8, 8, 1, 1, 1, 2, 8, 1, 3, 1, 8, 4}) // corners
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkAgainstRef(cooFromBytes(data)); err != nil {
			t.Fatal(err)
		}
	})
}
