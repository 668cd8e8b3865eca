package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestExperimentSelection pins the -e contract: a known id (any case)
// selects itself, "all" selects every experiment in order, and anything
// else is a usage error — exit 2, the accepted ids on stderr, nothing run.
func TestExperimentSelection(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want []string // nil: usage error
	}{
		{"e1", []string{"e1"}},
		{"e6", []string{"e6"}},
		{"E3", []string{"e3"}},
		{"all", experimentIDs},
		{"e9", nil},
		{"e0", nil},
		{"bogus", nil},
		{"", nil},
		{"e1,e2", nil},
	} {
		if tc.want != nil {
			if got, err := selectExperiments(tc.id); err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("-e %q: got %v, %v; want %v", tc.id, got, err, tc.want)
			}
			continue
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-e", tc.id}, &stdout, &stderr); code != 2 {
			t.Errorf("-e %q: exit %d, want 2", tc.id, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-e %q: an experiment ran: %q", tc.id, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "e1, e2, e3, e4, e5, e6, or all") {
			t.Errorf("-e %q: stderr %q does not list the accepted ids", tc.id, msg)
		}
	}
}
