package fmore_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundary keeps the repo two products over one core: the service
// side (the /v1 exchange, its SDK and the router) must not link the
// paper-reproduction side (the gob/TCP harness and the ML stack under it).
// The two share only internal/auction, internal/dist and internal/numeric.
//
// Inside the service side, internal/wal is the only code that knows what a
// data dir looks like on disk: of this repo it may link internal/fault and
// nothing else, and the exchange's non-test files stay out of the byte
// level — no checksums, no binary headers, no syscalls.
func TestImportBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("shells the go tool")
	}
	service := []string{"./pkg/client", "./internal/exchange", "./cmd/fmore-exchange", "./cmd/fmore-router"}
	forbidden := map[string]bool{"encoding/gob": true}
	for _, p := range []string{"transport", "cluster", "ml", "fl", "sim", "data", "mec"} {
		forbidden["fmore/internal/"+p] = true
	}
	for _, pkg := range service {
		out, err := exec.Command("go", "list", "-deps", pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", pkg, err, out)
		}
		for _, dep := range strings.Fields(string(out)) {
			if forbidden[dep] {
				t.Errorf("%s depends on %s", pkg, dep)
			}
		}
	}

	out, err := exec.Command("go", "list", "-deps", "./internal/wal").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps ./internal/wal: %v\n%s", err, out)
	}
	for _, dep := range strings.Fields(string(out)) {
		if strings.HasPrefix(dep, "fmore/") && dep != "fmore/internal/wal" && dep != "fmore/internal/fault" {
			t.Errorf("./internal/wal depends on %s", dep)
		}
	}
	byteLevel := map[string]bool{"hash/crc32": true, "encoding/binary": true, "syscall": true}
	for _, file := range nonTestGoFiles(t, "internal/exchange") {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); byteLevel[path] {
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}

// TestWireDeclaredOnce keeps the /v1 contract in one place. pkg/api owns
// every wire shape, so the code on either side of the wire — the handler,
// the analytics endpoints, the SDK and the router — declares no JSON field
// of its own and assembles no body from a map literal; pkg/api stays a leaf
// (of this repo: the spec types in internal/auction, the map document in
// internal/partition, and what those two link); and the two strings a 421
// hangs on — the status and the code — are spelled where they are produced
// (internal/exchange) and where they are interpreted (internal/partition),
// nowhere else. The event stream's names are spelled once, in pkg/api, and
// so is every /v1 path: no "/v1… literal outside pkg/api's route table but
// partition.MapPath, which pkg/api's row reads.
func TestWireDeclaredOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("shells the go tool")
	}
	files := []string{"internal/exchange/http.go"}
	for _, dir := range []string{"pkg/client", "cmd/fmore-router", "internal/analytics"} {
		files = append(files, nonTestGoFiles(t, dir)...)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if n.Tag != nil && strings.Contains(n.Tag.Value, `json:"`) {
					t.Errorf("%s: struct field tagged %s — wire shapes are declared in pkg/api", fset.Position(n.Pos()), n.Tag.Value)
				}
			case *ast.CompositeLit:
				if m, ok := n.Type.(*ast.MapType); ok && isIdent(m.Key, "string") && (isIdent(m.Value, "any") || isEmptyInterface(m.Value)) {
					t.Errorf("%s: map[string]any literal — name the body in pkg/api", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}

	out, err := exec.Command("go", "list", "-deps", "./pkg/api").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps ./pkg/api: %v\n%s", err, out)
	}
	leaf := map[string]bool{"fmore/pkg/api": true}
	for _, p := range []string{"auction", "partition", "dist", "numeric"} {
		leaf["fmore/internal/"+p] = true
	}
	for _, dep := range strings.Fields(string(out)) {
		if strings.HasPrefix(dep, "fmore/") && !leaf[dep] {
			t.Errorf("./pkg/api depends on %s", dep)
		}
	}

	// Who may say 421, wrong_partition, a /v1 path and the event names.
	eventNames := map[string]bool{`"round_open"`: true, `"round_closed"`: true, `"job_closed"`: true}
	spelled := map[string][]string{}
	for _, root := range []string{"cmd", "pkg", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					// An error code that happens to share job_closed's text.
					return !(len(n.Names) == 1 && n.Names[0].Name == "CodeJobClosed")
				case *ast.SelectorExpr:
					if n.Sel.Name == "StatusMisdirectedRequest" {
						spelled["421"] = append(spelled["421"], filepath.ToSlash(filepath.Dir(path)))
					}
				case *ast.BasicLit:
					if n.Value == `"wrong_partition"` || strings.HasSuffix(n.Value, `/cluster/partitions"`) || eventNames[n.Value] {
						spelled[n.Value] = append(spelled[n.Value], filepath.ToSlash(path))
					}
					if strings.HasPrefix(n.Value, `"/v1`) && filepath.ToSlash(filepath.Dir(path)) != "pkg/api" && n.Value != `"/v1/cluster/partitions"` {
						t.Errorf("%s: %s — /v1 paths are api.Routes rows (Route.URL, Route.Path)", fset.Position(n.Pos()), n.Value)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range spelled["421"] {
		if dir != "internal/exchange" && dir != "internal/partition" {
			t.Errorf("%s names http.StatusMisdirectedRequest: only internal/exchange produces a 421 and only internal/partition interprets one", dir)
		}
	}
	delete(spelled, "421")
	want := map[string][]string{
		`"wrong_partition"`:        {"internal/partition/routes.go"},
		`"/v1/cluster/partitions"`: {"internal/partition/routes.go"}, // partition.MapPath, api.GetPartitions's path
		`"round_open"`:             {"pkg/api/jobs.go"},
		`"round_closed"`:           {"pkg/api/jobs.go"},
		`"job_closed"`:             {"pkg/api/jobs.go"},
	}
	for lit, where := range spelled {
		if strings.Join(where, " ") != strings.Join(want[lit], " ") {
			t.Errorf("%s is spelled in %v, want only %v", lit, where, want[lit])
		}
	}
	if len(spelled) != len(want) {
		t.Errorf("found %v, want each of %v", spelled, want)
	}
}

// TestDurableWritesOnePath keeps one way to change durable state in
// internal/exchange: every mutation but the round close goes through
// Exchange.mutate, which gates on a degraded log, appends the record and
// only then applies the change; the round close keeps its own encoder in
// Job.logRound. So outside those two no code calls the log's Buf or Append
// (a call of either name counts), and the degraded gate, degradedErr, is
// called only in degraded.go, mutate and the three paths that refuse
// before mutating: SubmitBid and CloseRound ahead of intake or scoring
// work, RemoveJob before it closes the job.
func TestDurableWritesOnePath(t *testing.T) {
	appenders := map[string]bool{"mutate": true, "logRound": true}
	gates := map[string]bool{"mutate": true, "SubmitBid": true, "CloseRound": true, "RemoveJob": true}
	fset := token.NewFileSet()
	for _, file := range nonTestGoFiles(t, "internal/exchange") {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch name := sel.Sel.Name; {
				case (name == "Buf" || name == "Append") && !appenders[fn.Name.Name]:
					t.Errorf("%s: %s calls the log's %s — durable writes go through Exchange.mutate", fset.Position(call.Pos()), fn.Name.Name, name)
				case name == "degradedErr" && filepath.Base(file) != "degraded.go" && !gates[fn.Name.Name]:
					t.Errorf("%s: %s calls degradedErr — Exchange.mutate gates durable writes", fset.Position(call.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
}

// TestEveryCommandTested keeps every runnable program one that the tests
// run: a main package lives under cmd/ and has a test file. A walkthrough
// of the library is an Example in the package it shows, where its printed
// output is checked.
func TestEveryCommandTested(t *testing.T) {
	if testing.Short() {
		t.Skip("shells the go tool")
	}
	out, err := exec.Command("go", "list", "-f",
		"{{.Name}} {{.ImportPath}} {{len .TestGoFiles}} {{len .XTestGoFiles}}", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "main" {
			continue
		}
		if !strings.HasPrefix(f[1], "fmore/cmd/") {
			t.Errorf("%s is a main package outside cmd/", f[1])
		}
		if f[2] == "0" && f[3] == "0" {
			t.Errorf("%s has no test file", f[1])
		}
	}
}

func nonTestGoFiles(t *testing.T, dir string) []string {
	t.Helper()
	all, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, f := range all {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isEmptyInterface(e ast.Expr) bool {
	it, ok := e.(*ast.InterfaceType)
	return ok && len(it.Methods.List) == 0
}
