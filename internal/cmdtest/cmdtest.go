// Package cmdtest holds what the tests of the commands under cmd/ share.
// Only test files import it.
package cmdtest

import (
	"os"
	"path/filepath"
	"testing"
)

// Stdout runs f with os.Stdout sent to a file and returns what f wrote
// there, with f's error.
func Stdout(t testing.TB, f func() error) (string, error) {
	t.Helper()
	file, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	saved := os.Stdout
	os.Stdout = file
	defer func() { os.Stdout = saved }()
	runErr := f()
	out, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}
