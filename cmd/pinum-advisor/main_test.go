package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBudgetRefused builds the command and runs it with budgets it must
// refuse before building any cache: one whose byte count does not fit an
// int64 (which the unchecked conversion turned into a negative budget and
// an empty recommendation), and a non-positive one.
func TestBudgetRefused(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "pinum-advisor")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building: %v\n%s", err, out)
	}
	for budget, want := range map[string]string{
		"1e10":  "-budget must be below 9.223372036854776e+09 GB (the int64 byte limit), got 1e+10",
		"1e300": "the int64 byte limit",
		"0":     "-budget must be positive, got 0",
	} {
		out, err := exec.Command(bin, "-budget", budget).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("-budget %s: %v, want exit status 1\n%s", budget, err, out)
		}
		if !strings.Contains(string(out), want) {
			t.Errorf("-budget %s: output %q, want it to contain %q", budget, out, want)
		}
	}
}
