package fmore_test

import (
	"go/parser"
	"go/token"
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
	files, err := filepath.Glob("internal/exchange/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
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
