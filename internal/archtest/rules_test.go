package archtest

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"strconv"
	"strings"
)

// rule is one row of the table: a design decision an earlier PR made, the
// matcher that finds code undoing it, where the matcher looks, and a seed
// that must trip it.
type rule struct {
	id     string // the row's name
	gate   string // the check.sh gate the row replaced, by its old number
	pr     int    // the PR that made the decision
	reason string // what the decision keeps, and what to do instead
	scope  scope
	match  matcher
	seed   seed
}

// seed is a file (Go, or a script under scripts/) the row must fire on,
// or, for a path row, the path that must not exist.
type seed struct{ path, src string }

// scope says which files a Go row reads.
type scope struct {
	dirs   []string // subtrees read: "" is the whole tree, "." the root package alone
	except []string // subtrees skipped
	tests  bool     // _test.go files too
	fn     string   // only code inside this function: "Func" or "Type.Method"
}

// everywhere is all non-test Go, benchmark/ and examples/ included.
var everywhere = scope{dirs: []string{""}}

// in reads the non-test Go of the given subtrees.
func in(dirs ...string) scope { return scope{dirs: dirs} }

func (s scope) but(dirs ...string) scope { s.except = dirs; return s }
func (s scope) withTests() scope         { s.tests = true; return s }
func (s scope) inside(fn string) scope   { s.fn = fn; return s }

func (s scope) covers(f *file) bool {
	if f.test && !s.tests {
		return false
	}
	for _, d := range s.except {
		if within(f.dir, d) {
			return false
		}
	}
	for _, d := range s.dirs {
		if within(f.dir, d) {
			return true
		}
	}
	return false
}

// within reports whether dir is sub or below it.
func within(dir, sub string) bool {
	return sub == "" || dir == sub || sub != "." && strings.HasPrefix(dir, sub+"/")
}

// matcher finds one kind of thing. Go matchers look at one syntax node at
// a time; path and script matchers look at the tree.
type matcher struct {
	node  func(c *cursor, n ast.Node) string // a hit's description, "" for none
	typed bool                               // node reads types: its seed must type-check
	path  string                             // a path that must not exist
	text  *regexp.Regexp                     // a line of scripts/ outside comments
}

// cursor is where a Go matcher stands: the file, and the function whose
// declaration holds the node ("" outside any).
type cursor struct {
	f  *file
	fn string
}

// importOf matches an import of a path matching re, whatever its alias.
func importOf(re string) matcher {
	r := regexp.MustCompile(re)
	return matcher{node: func(c *cursor, n ast.Node) string {
		if s, ok := n.(*ast.ImportSpec); ok {
			if p, _ := strconv.Unquote(s.Path.Value); r.MatchString(p) {
				return "imports " + p
			}
		}
		return ""
	}}
}

// named matches a declared or used identifier matching re.
func named(re string) matcher {
	r := regexp.MustCompile(re)
	return matcher{node: func(c *cursor, n ast.Node) string {
		if id, ok := n.(*ast.Ident); ok && r.MatchString(id.Name) {
			return "names " + id.Name
		}
		return ""
	}}
}

// funcDecl matches the declaration of a function or method named name;
// with recv set, only of a method whose receiver's type name matches it.
func funcDecl(recv, name string) matcher {
	rr, nr := regexp.MustCompile(recv), regexp.MustCompile(name)
	return matcher{node: func(c *cursor, n ast.Node) string {
		d, ok := n.(*ast.FuncDecl)
		if !ok || !nr.MatchString(d.Name.Name) || recv != "" && (d.Recv == nil || !rr.MatchString(recvType(d))) {
			return ""
		}
		return "declares func " + c.fn
	}}
}

// typeDecl matches the declaration of a type named name.
func typeDecl(name string) matcher {
	r := regexp.MustCompile(name)
	return matcher{node: func(c *cursor, n ast.Node) string {
		if s, ok := n.(*ast.TypeSpec); ok && r.MatchString(s.Name.Name) {
			return "declares type " + s.Name.Name
		}
		return ""
	}}
}

// field matches a field named name, of type typ when typ is set, in a
// struct type declared under a name matching strct, or in any struct
// (named or not) when strct is "".
func field(strct, name, typ string) matcher {
	sr, nr := regexp.MustCompile(strct), regexp.MustCompile(name)
	fields := func(owner string, st *ast.StructType) string {
		var found []string
		for _, fl := range st.Fields.List {
			for _, id := range fl.Names {
				if nr.MatchString(id.Name) && (typ == "" || types.ExprString(fl.Type) == typ) {
					found = append(found, owner+id.Name)
				}
			}
		}
		if len(found) == 0 {
			return ""
		}
		return "declares field " + strings.Join(found, ", ")
	}
	return matcher{node: func(c *cursor, n ast.Node) string {
		if strct == "" {
			if st, ok := n.(*ast.StructType); ok {
				return fields("", st)
			}
			return ""
		}
		if s, ok := n.(*ast.TypeSpec); ok && sr.MatchString(s.Name.Name) {
			if st, ok := s.Type.(*ast.StructType); ok {
				return fields(s.Name.Name+".", st)
			}
		}
		return ""
	}}
}

// call matches a call of a function or method whose name matches name,
// outside the function allowedIn when that is set. An owner that is an
// import path limits it to that package's functions (the file's import
// names resolve an alias); one of the form "path.Type", to the methods
// of that type, which needs types; "" takes any callee.
func call(owner, name, allowedIn string) matcher {
	r := regexp.MustCompile(name)
	return matcher{typed: strings.Contains(path.Base(owner), "."), node: func(c *cursor, n ast.Node) string {
		ce, ok := n.(*ast.CallExpr)
		if !ok || allowedIn != "" && c.fn == allowedIn {
			return ""
		}
		var callee string
		switch fn := ast.Unparen(ce.Fun).(type) {
		case *ast.Ident:
			if owner != "" {
				return ""
			}
			callee = fn.Name
		case *ast.SelectorExpr:
			if owner != "" && owner != c.pkgOf(fn.X) && owner != c.recvOf(fn) {
				return ""
			}
			callee = fn.Sel.Name
		default:
			return ""
		}
		if !r.MatchString(callee) {
			return ""
		}
		return "calls " + callee
	}}
}

// conversion matches a conversion to one of pairs' types whose operand
// holds a value of the type paired with it, or reads one of the fields
// reads names as "path.Type.Field". It needs types.
func conversion(pairs map[string]string, reads ...string) matcher {
	return matcher{typed: true, node: func(c *cursor, n ast.Node) string {
		ce, ok := n.(*ast.CallExpr)
		if !ok || c.f.info == nil || len(ce.Args) != 1 {
			return ""
		}
		tv, ok := c.f.info.Types[ce.Fun]
		if !ok || !tv.IsType() {
			return ""
		}
		to := qualified(tv.Type)
		from, ok := pairs[to]
		if !ok {
			return ""
		}
		var what string
		ast.Inspect(ce.Args[0], func(n ast.Node) bool {
			if what != "" {
				return false
			}
			if e, ok := n.(ast.Expr); ok && qualified(c.f.info.TypeOf(e)) == from {
				what = "converts a " + from + " to " + to
			}
			if se, ok := n.(*ast.SelectorExpr); ok {
				if s := c.f.info.Selections[se]; s != nil && s.Kind() == types.FieldVal {
					read := qualified(s.Recv()) + "." + se.Sel.Name
					for _, r := range reads {
						if read == r {
							what = "converts " + read + " to " + to
						}
					}
				}
			}
			return what == ""
		})
		return what
	}}
}

// forLoop matches a for statement, ranged or not.
func forLoop() matcher {
	return matcher{node: func(c *cursor, n ast.Node) string {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return "loops"
		}
		return ""
	}}
}

// shape matches what pred describes; typedShape, where pred reads types.
func shape(pred func(c *cursor, n ast.Node) string) matcher {
	return matcher{node: pred}
}

func typedShape(pred func(c *cursor, n ast.Node) string) matcher {
	return matcher{typed: true, node: pred}
}

// absent matches a path that exists.
func absent(path string) matcher { return matcher{path: path} }

// scriptText matches a line of scripts/ outside comments.
func scriptText(re string) matcher {
	return matcher{text: regexp.MustCompile(re)}
}

// pkgOf is the import path x names, "" when it names no package.
func (c *cursor) pkgOf(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if c.f.info != nil {
		if pn, ok := c.f.info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		if c.f.info.Uses[id] != nil {
			return ""
		}
	}
	return c.f.imports[id.Name]
}

// recvOf is "path.Type" for a method selection on a named type, "" else.
func (c *cursor) recvOf(se *ast.SelectorExpr) string {
	if c.f.info == nil {
		return ""
	}
	if s := c.f.info.Selections[se]; s != nil && s.Kind() == types.MethodVal {
		return qualified(s.Recv())
	}
	return ""
}

// qualified is "path.Name" for a named type or a pointer to one, "" else.
func qualified(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	return ""
}

// recvType is the name of a method's receiver type, without its pointer.
func recvType(d *ast.FuncDecl) string {
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch t := t.(type) {
	case *ast.IndexExpr:
		return types.ExprString(t.X)
	case *ast.IndexListExpr:
		return types.ExprString(t.X)
	}
	return types.ExprString(t)
}

// funcName is "Func" or "Type.Method" for a function declaration, "" for
// any other declaration.
func funcName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	return recvType(fd) + "." + fd.Name.Name
}

// stringLit matches a string literal whose value matches re.
func stringLit(re string) func(c *cursor, n ast.Node) string {
	r := regexp.MustCompile(re)
	return func(c *cursor, n ast.Node) string {
		if l, ok := n.(*ast.BasicLit); ok && l.Kind == token.STRING {
			if s, err := strconv.Unquote(l.Value); err == nil && r.MatchString(s) {
				return "spells " + strconv.Quote(s)
			}
		}
		return ""
	}
}

// lastName is the identifier an expression ends in: x for x, x.y.z for z.
func lastName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

var sortName = regexp.MustCompile(`Sort|Slice|Stable`)

// sortsIndexSets matches a sort call (sort.Slice, slices.SortFunc and the
// like) over a slice of header.IndexSet. It needs types.
func sortsIndexSets(c *cursor, n ast.Node) string {
	ce, ok := n.(*ast.CallExpr)
	if !ok || c.f.info == nil || len(ce.Args) == 0 || !sortName.MatchString(lastName(ce.Fun)) {
		return ""
	}
	t := c.f.info.TypeOf(ce.Args[0])
	if t == nil {
		return ""
	}
	if s, ok := t.Underlying().(*types.Slice); ok && qualified(s.Elem()) == "fafnir/internal/header.IndexSet" {
		return "sorts []header.IndexSet with " + lastName(ce.Fun)
	}
	return ""
}

// incDRAM matches a string-keyed counter bump: .Inc("dram.…").
func incDRAM(c *cursor, n ast.Node) string {
	ce, ok := n.(*ast.CallExpr)
	if !ok || len(ce.Args) == 0 || lastName(ce.Fun) != "Inc" {
		return ""
	}
	if l, ok := ce.Args[0].(*ast.BasicLit); ok && l.Kind == token.STRING && strings.HasPrefix(l.Value, `"dram.`) {
		return "bumps counter " + l.Value
	}
	return ""
}

var ratioName = regexp.MustCompile(`(?i)ratio`)

// ceilByRatio matches a rounding-up division by a ratio: (… - 1) / ratio.
func ceilByRatio(c *cursor, n ast.Node) string {
	b, ok := n.(*ast.BinaryExpr)
	if !ok || b.Op != token.QUO || !ratioName.MatchString(lastName(b.Y)) {
		return ""
	}
	if s, ok := ast.Unparen(b.X).(*ast.BinaryExpr); ok && s.Op == token.SUB {
		if l, ok := s.Y.(*ast.BasicLit); ok && l.Value == "1" {
			return "rounds up a division by " + lastName(b.Y)
		}
	}
	return ""
}

// writes200 matches writeJSON(w, status, …) with a status of 200. It
// needs types.
func writes200(c *cursor, n ast.Node) string {
	ce, ok := n.(*ast.CallExpr)
	if !ok || c.f.info == nil || lastName(ce.Fun) != "writeJSON" || len(ce.Args) < 2 {
		return ""
	}
	if v := c.f.info.Types[ce.Args[1]].Value; v != nil && constant.Compare(v, token.EQL, constant.MakeInt64(200)) {
		return "writes a 200 with writeJSON"
	}
	return ""
}

// simCycle and simMemCycle are the two clock domains' cycle types.
const (
	simCycle    = "fafnir/internal/sim.Cycle"
	simMemCycle = "fafnir/internal/sim.MemCycle"
)

// rules is the table. A row's PR is the one whose design decision the row
// keeps; its gate is the check.sh section that held it before.
var rules = []rule{
	{id: "no-gosched", gate: "7b", pr: 19,
		reason: "host parallelism is whole hardware batches, shards and fleets, never a per-PE scheduler (docs/ARCHITECTURE.md section 9)",
		scope:  everywhere, match: call("runtime", "^Gosched$", ""),
		seed: seed{"internal/fafnir/seed.go", "package fafnir\nimport \"runtime\"\nfunc f() { runtime.Gosched() }\n"}},
	{id: "no-tree-scheduler", gate: "7b", pr: 19,
		reason: "the work-stealing tree schedulers are gone: the tree walk is one in-order pass per hardware batch",
		scope:  everywhere, match: named("stealHead|evalAsync"),
		seed: seed{"internal/rnet/seed.go", "package rnet\nfunc evalAsync() {}\n"}},
	{id: "pe-bitset-algebra", gate: "7c", pr: 22,
		reason: "the engine carries headers as header.Bitset words end to end, not sorted-slice sets (docs/ARCHITECTURE.md section 3)",
		scope:  in("internal/fafnir"), match: call("", "^(ContainsAll|Union|Minus)$", ""),
		seed: seed{"internal/fafnir/seed.go", "package fafnir\ntype set []uint32\nfunc (s set) Union(o set) set { return s }\nfunc f(a, b set) set { return a.Union(b) }\n"}},
	{id: "pe-sorts-index-sets", gate: "7c", pr: 22,
		reason: "the engine sorts no sorted-slice header sets: it carries header.Bitset words",
		scope:  in("internal/fafnir"), match: typedShape(sortsIndexSets),
		seed: seed{"internal/fafnir/seed.go", "package fafnir\nimport (\n\t\"slices\"\n\t\"fafnir/internal/header\"\n)\nfunc f(s []header.IndexSet) { slices.SortFunc(s, func(a, b header.IndexSet) int { return 0 }) }\n"}},
	{id: "pe-unexported", gate: "7c", pr: 34,
		reason: "the PE is reached only through Engine.Lookup/TimedLookup: no exported ProcessPE or SelfMerge",
		scope:  in("internal/fafnir"), match: funcDecl("", "^(ProcessPE|SelfMerge)"),
		seed: seed{"internal/fafnir/seed.go", "package fafnir\nfunc ProcessPE() {}\n"}},
	{id: "pe-entry-unexported", gate: "7c", pr: 34,
		reason: "tree entries are the engine's own: no exported Entry type",
		scope:  in("internal/fafnir"), match: typeDecl("^Entry$"),
		seed: seed{"internal/fafnir/seed.go", "package fafnir\ntype Entry struct{}\n"}},
	{id: "no-examples-dedup", gate: "7c", pr: 34,
		reason: "the fig6 exhibit prints the worked example through the engine; a second hand-rolled tree walk is gone",
		match:  absent("examples/dedup"), seed: seed{path: "examples/dedup"}},
	{id: "merge-order-is-bits", gate: "7c", pr: 34,
		reason: "the merge unit's canonical order reads only the bits: no global-index key order",
		scope:  in("internal/header"), match: named("ReverseBytes32"),
		seed: seed{"internal/header/seed.go", "package header\nimport \"math/bits\"\nfunc f(x uint32) uint32 { return bits.ReverseBytes32(x) }\n"}},
	{id: "index-set-no-key", gate: "7c", pr: 34,
		reason: "IndexSet has no Key: the merge order is a property of the bits alone",
		scope:  in("internal/header"), match: funcDecl("^IndexSet$", "^Key$"),
		seed: seed{"internal/header/seed.go", "package header\ntype IndexSet []uint32\nfunc (s IndexSet) Key() string { return \"\" }\n"}},
	{id: "pe-joins-class-chains", gate: "7c", pr: 48,
		reason: "the PE joins class chains: the hash table, sort, probe and grouping of the bitset PE are the tests' referee (docs/ARCHITECTURE.md section 3)",
		scope:  in("internal/fafnir"), match: named("setTable|canon$|partner$|byClass$"),
		seed: seed{"internal/fafnir/seed.go", "package fafnir\nfunc partner(i int) int { return i ^ 1 }\nvar _ = partner(0)\n"}},
	{id: "no-event-queue", gate: "7d", pr: 23,
		reason: "internal/sim is a cycle type, not a kernel: dram.Counters and fafnir.OfferedLoad need no event queue",
		scope:  everywhere, match: importOf("^container/heap$"),
		seed: seed{"internal/sim/seed.go", "package sim\nimport _ \"container/heap\"\n"}},
	{id: "no-sim-engine", gate: "7d", pr: 23,
		reason: "sim.NewEngine and sim.NewStats are gone: cycles are a type and DRAM counters are typed fields",
		scope:  everywhere, match: call("fafnir/internal/sim", "^(NewEngine|NewStats)$", ""),
		seed: seed{"internal/dram/seed.go", "package dram\nimport \"fafnir/internal/sim\"\nvar _ = sim.NewStats()\n"}},
	{id: "no-string-keyed-counters", gate: "7d", pr: 23,
		reason: "DRAM counters are dram.Counters fields, not string keys",
		scope:  everywhere, match: shape(incDRAM),
		seed: seed{"internal/dram/seed.go", "package dram\ntype stats struct{}\nfunc (stats) Inc(string) {}\nfunc f(s stats) { s.Inc(\"dram.reads\") }\n"}},
	{id: "no-internal-scale", gate: "7d", pr: 23,
		reason: "internal/scale, the host-combine fleet model, is gone: abl-scaleout runs on router.Fleet",
		match:  absent("internal/scale"), seed: seed{path: "internal/scale"}},
	{id: "one-stream-loop", gate: "7e", pr: 24,
		reason: "spmv.Schedule.Run owns the only Fig. 8 stream-round loop",
		scope:  everywhere.but("internal/dram", "internal/spmv"), match: call("", "^(StreamRead|StreamWrite)$", ""),
		seed: seed{"internal/twostep/seed.go", "package twostep\ntype mem struct{}\nfunc (mem) StreamRead() {}\nfunc f(m mem) { m.StreamRead() }\n"}},
	{id: "twostep-is-a-preset", gate: "7e", pr: 24,
		reason: "internal/twostep is a parameter set for spmv.Schedule, not an engine: it has no loop",
		scope:  in("internal/twostep"), match: forLoop(),
		seed: seed{"internal/twostep/seed.go", "package twostep\nfunc f(n int) (s int) {\n\tfor i := 0; i < n; i++ {\n\t\ts += i\n\t}\n\treturn s\n}\n"}},
	{id: "one-domain-crossing", gate: "7e", pr: 24,
		reason: "the rounding-up clock-domain crossing is written out only in internal/sim: cross with dram's ToPE",
		scope:  everywhere.but("internal/sim"), match: shape(ceilByRatio),
		seed: seed{"internal/spmv/seed.go", "package spmv\nfunc f(c, ratio uint64) uint64 { return (c*ratio + ratio - 1) / ratio }\n"}},
	{id: "rescale-only-in-dram", gate: "7e", pr: 47,
		reason: "sim.Rescale is called only by the memory's own ToPE and FromPE",
		scope:  everywhere.but("internal/sim", "internal/dram"), match: call("fafnir/internal/sim", "^Rescale$", ""),
		seed: seed{"internal/spmv/seed.go", "package spmv\nimport \"fafnir/internal/sim\"\nvar _ = sim.Rescale(1, 1200, 200)\n"}},
	{id: "one-workload-record", gate: "7f", pr: 24,
		reason: "internal/trace's JSONL request stream is the only replayable workload format",
		scope:  everywhere.withTests(), match: named("recordedRequest"),
		seed: seed{"cmd/fafnir-loadgen/seed_test.go", "package main\ntype recordedRequest struct{}\n"}},
	{id: "one-op-parser", gate: "7f", pr: 24,
		reason: "tensor.ParseOp is the only parser of a pooling-op name",
		scope:  everywhere.but("internal/tensor").withTests(), match: funcDecl("", "^[pP]arseOp$"),
		seed: seed{"internal/trace/seed.go", "package trace\nfunc parseOp(s string) int { return len(s) }\n"}},
	{id: "one-server-constructor", gate: "7h", pr: 28,
		reason: "fafnir.NewServer serves a System, Fleet or Federation: the per-topology constructors are gone",
		scope:  everywhere, match: named("NewFleetServer|NewFederationServer"),
		seed: seed{"seed.go", "package fafnir\nfunc NewFleetServer() {}\n"}},
	{id: "no-fault-storm-flag", gate: "7h", pr: 28,
		reason: "one -faults flag takes the fleet grammar: -fault-storm is gone",
		scope:  everywhere, match: shape(stringLit("fault-storm")),
		seed: seed{"cmd/fafnir-serve/seed.go", "package main\nimport \"flag\"\nvar _ = flag.String(\"fault-storm\", \"\", \"\")\n"}},
	{id: "no-mlp", gate: "7h", pr: 28,
		reason: "internal/mlp is gone",
		scope:  everywhere, match: importOf("(^|/)internal/mlp$"),
		seed: seed{"cmd/fafnir-serve/seed.go", "package main\nimport _ \"fafnir/internal/mlp\"\n"}},
	{id: "scripts-serve-one-way", gate: "7h", pr: 28,
		reason: "no script drives a deleted serving constructor, flag or package",
		match:  scriptText(`NewFleetServer|NewFederationServer|fault-storm|internal/mlp`),
		seed:   seed{"scripts/seed.sh", "#!/bin/sh\nfafnir-serve -shards 4 -fault-storm shard=1@1\n"}},
	{id: "no-lookup-recheck", gate: "7i", pr: 32,
		reason: "a lookup is not re-checked after the engine: the engine folds the reference itself",
		scope:  in("."), match: named("verify$"),
		seed: seed{"seed.go", "package fafnir\nfunc verify() {}\n"}},
	{id: "golden-only-in-system-golden", gate: "7i", pr: 32,
		reason: "the root package calls Golden only inside System.Golden: the engine checks every hardware batch",
		scope:  in("."), match: call("", "Golden$", "System.Golden"),
		seed: seed{"seed.go", "package fafnir\ntype batch struct{}\nfunc (batch) MustGolden() {}\nfunc f(b batch) { b.MustGolden() }\n"}},
	{id: "backends-hand-out-rows", gate: "7j", pr: 31,
		reason: "no backend synthesizes rows for the cache: the fill copies the rows Lookup read (AttachRowSink)",
		scope:  everywhere, match: funcDecl("^(System|Fleet|Federation)$", "^Row$"),
		seed: seed{"internal/router/seed.go", "package router\ntype Fleet struct{}\nfunc (f *Fleet) Row(i int) {}\n"}},
	{id: "serve-reads-no-rows", gate: "7j", pr: 31,
		reason: "internal/serve reads rows only through the backend's Lookup: the cache fills from the row hand-off",
		scope:  in("internal/serve"), match: call("", "^Row$", ""),
		seed: seed{"internal/serve/seed.go", "package serve\ntype backend struct{}\nfunc (backend) Row() {}\nfunc f(b backend) { b.Row() }\n"}},
	{id: "serve-synthesizes-no-rows", gate: "7j", pr: 31,
		reason: "internal/serve synthesizes no row from the store: the cache fills from the row hand-off",
		scope:  in("internal/serve"), match: call("fafnir/internal/embedding.Store", "^Vector$", ""),
		seed: seed{"internal/serve/seed.go", "package serve\nimport \"fafnir/internal/embedding\"\nfunc f(s *embedding.Store) { s.Vector(1) }\n"}},
	{id: "oracle-is-test-only", gate: "7k", pr: 32,
		reason: "internal/oracle is the tests' referee, not a runtime check",
		scope:  everywhere.but("internal/oracle", "benchmark"), match: importOf("^fafnir/internal/oracle$"),
		seed: seed{"internal/router/seed.go", "package router\nimport _ \"fafnir/internal/oracle\"\n"}},
	{id: "exact-compare", gate: "7k", pr: 32,
		reason: "lookups compare exactly: no tolerance",
		scope:  everywhere, match: named("ApproxEqual"),
		seed: seed{"internal/tensor/seed.go", "package tensor\nfunc ApproxEqual() bool { return true }\n"}},
	{id: "no-verify-knob", gate: "7k", pr: 32,
		reason: "lookups are checked once, always: no opt-in re-check",
		scope:  everywhere, match: field("", "^Verify$", "bool"),
		seed: seed{"internal/router/seed.go", "package router\ntype FederationConfig struct{ Verify bool }\n"}},
	{id: "rnet-root-is-the-fold", gate: "7k", pr: 32,
		reason: "internal/rnet tracks no vector ownership: the root's values are the serial fold",
		scope:  in("internal/rnet"), match: named("owned"),
		seed: seed{"internal/rnet/seed.go", "package rnet\ntype reduceState struct{ owned []bool }\n"}},
	{id: "reply-by-appending", gate: "7l", pr: 33,
		reason: "handleLookup appends its reply with the reply encoder (internal/serve/reply.go), byte-identical to encoding/json",
		scope:  in("internal/serve").inside("Server.handleLookup"), match: call("encoding/json", "^(NewEncoder|Marshal)", ""),
		seed: seed{"internal/serve/seed.go", "package serve\nimport \"encoding/json\"\ntype Server struct{}\nfunc (s *Server) handleLookup() { json.Marshal(1) }\n"}},
	{id: "reply-not-writejson-200", gate: "7l", pr: 33,
		reason: "handleLookup renders no 200 through writeJSON: the reply encoder appends it",
		scope:  in("internal/serve").inside("Server.handleLookup"), match: typedShape(writes200),
		seed: seed{"internal/serve/seed.go", "package serve\nimport \"net/http\"\ntype Server struct{}\nfunc writeJSON(w http.ResponseWriter, status int, v any) {}\nfunc (s *Server) handleLookup(w http.ResponseWriter) { writeJSON(w, http.StatusOK, nil) }\n"}},
	{id: "decode-by-hand", gate: "7l", pr: 38,
		reason: "a lookup body is parsed by hand when canonical (internal/serve/decode.go); encoding/json decodes only inside decodeReference, the one fallback (PR 42)",
		scope:  in("internal/serve"), match: call("encoding/json", "^(NewDecoder|Unmarshal)$", "decodeReference"),
		seed: seed{"internal/serve/seed.go", "package serve\nimport j \"encoding/json\"\nfunc decode(b []byte, v any) error { return j.Unmarshal(b, v) }\n"}},
	{id: "one-value-per-setting", gate: "7m", pr: 35,
		reason: "a setting no program sets is the constant it defaults to, not a config field",
		scope:  in(".", "internal/serve", "internal/router", "internal/rnet"),
		match:  field("^(SystemConfig|Config|Schedule)$", "^(ZipfS|QuerySize|DisableDedup|MaxQueriesPerRequest|RetryJitterSeed|CacheSeed|ShedLowWater|DeadlineSlack|SLOWindow|SLOBudget|SLOK|FailureThreshold|RetryDeadline|Host|OwnerStride|OwnerPhase|LinkCycles|SwitchLatency|CombineCycles)$", ""),
		seed:   seed{"internal/rnet/seed.go", "package rnet\ntype Config struct{ LinkCycles int }\n"}},
	{id: "deleted-fault-and-retry-paths", gate: "7m", pr: 35,
		reason: "the fault injector rides dram.System, and the retry-deadline path is gone",
		scope:  everywhere, match: named("TimedLookupFaulted|countAbandoned"),
		seed: seed{"internal/router/seed.go", "package router\nfunc countAbandoned() {}\n"}},
	{id: "deleted-metric-and-flag", gate: "7m", pr: 35,
		reason: "fafnir_router_retries_abandoned_total and the -cache-seed flag are gone",
		scope:  everywhere, match: shape(stringLit("fafnir_router_retries_abandoned_total|cache-seed")),
		seed: seed{"cmd/fafnir-serve/seed.go", "package main\nimport \"flag\"\nvar _ = flag.Int64(\"cache-seed\", 0, \"\")\n"}},
	{id: "engines-keep-no-clock", gate: "7m", pr: 47,
		reason: "an engine keeps no clock: the PE clock is sim.PEClockMHz, the memory's is dram.Config.ClockMHz",
		scope:  in("internal/fafnir", "internal/cpu", "internal/recnmp", "internal/tensordimm", "internal/twostep", "internal/spmv"),
		match:  field("^(SystemConfig|Config|Schedule)$", "^(ClockMHz|DRAMClockMHz)$", ""),
		seed:   seed{"internal/cpu/seed.go", "package cpu\ntype Config struct{ ClockMHz float64 }\n"}},
	{id: "one-memory-clock", gate: "7m", pr: 47,
		reason: "an engine reads the memory's clock from the dram.System it is handed: DRAMClockMHz is gone",
		scope:  everywhere, match: named("DRAMClockMHz"),
		seed: seed{"internal/recnmp/seed.go", "package recnmp\nconst DRAMClockMHz = 1200\n"}},
	{id: "cross-clocks-in-dram", gate: "7m", pr: 47,
		reason: "a memory value crosses into the PE clock only through dram's ToPE and FromPE, never a bare conversion",
		scope:  everywhere.but("internal/dram", "internal/sim"),
		match:  conversion(map[string]string{simCycle: simMemCycle, simMemCycle: simCycle}, "fafnir/internal/dram.Config.ClockMHz"),
		seed:   seed{"internal/spmv/seed.go", "package spmv\nimport (\n\t\"fafnir/internal/dram\"\n\t\"fafnir/internal/sim\"\n)\nfunc f(m *dram.System) sim.Cycle { return sim.Cycle(m.Now()) }\n"}},
}
