package fmore_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestImportBoundary keeps the repo two products over one core: the service
// side (the /v1 exchange, its SDK and the router) must not link the
// paper-reproduction side (the gob/TCP harness and the ML stack under it).
// The two share only internal/auction, internal/dist and internal/numeric.
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
}
