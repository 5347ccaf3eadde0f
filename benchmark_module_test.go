package zidian

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets runs `go vet ./...` inside benchmark/, the nested
// module whose probes and replay compile against zidian/internal/... by name.
// The root `go test ./...` does not reach a nested module, so without this a
// product change that renames or deletes a name the benchmark uses fails only
// in CI's benchmark step. The module's one requirement is the
// `replace zidian => ../`, so the vet needs no network.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the benchmark module with the go tool")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOFLAGS=", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
