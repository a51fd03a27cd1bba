package psmr_test

import (
	"os"
	"os/exec"
	"testing"
)

// benchmark/ is a module of its own that `go build ./... && go test
// ./...` at the root never reaches, yet it imports this module's
// internal packages: vetting it here makes a rename that breaks the
// measuring stick fail Tier-1 instead of the next benchmark run. The
// environment is the one benchmark/run.sh builds under.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-buildvcs=false", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
