package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestExpNamesAreTheRegistry pins -exp to the experiments.Sweeps
// registry: every registered name (and "all") selects exactly its
// sweeps, and through the real binary -list-exp prints the registry and
// an unregistered name exits 2 citing it.
func TestExpNamesAreTheRegistry(t *testing.T) {
	for _, s := range experiments.Sweeps {
		if got, ok := selectSweeps(s.Name); !ok || len(got) != 1 || got[0].Name != s.Name {
			t.Errorf("-exp %s selects %v (ok=%v), want just that sweep", s.Name, got, ok)
		}
	}
	if got, ok := selectSweeps("all"); !ok || len(got) != len(experiments.Sweeps) {
		t.Errorf("-exp all selects %d sweeps (ok=%v), want all %d", len(got), ok, len(experiments.Sweeps))
	}

	bin := filepath.Join(t.TempDir(), "symphony-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	names := experiments.SweepNames(nil)
	out, err := exec.Command(bin, "-list-exp").Output()
	if want := strings.Join(names, "\n") + "\nall\n"; err != nil || string(out) != want {
		t.Errorf("-list-exp printed %q (err %v), want %q", out, err, want)
	}
	var exit *exec.ExitError
	out, err = exec.Command(bin, "-exp", "no-such-experiment").CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-exp no-such-experiment: err %v, want exit status 2\n%s", err, out)
	}
	if want := "valid experiments: " + strings.Join(names, ", ") + ", all"; !strings.Contains(string(out), want) {
		t.Errorf("rejection message %q does not cite %q", out, want)
	}
}
