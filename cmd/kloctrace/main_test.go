package main

import (
	"bytes"
	"strings"
	"testing"
)

func traceOutput(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

func TestTracePrintsRequestedSlices(t *testing.T) {
	args := []string{"-scale", "256", "-duration-ms", "10", "-slices", "4"}
	out := traceOutput(t, args...)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Banner, blank line, column header, then one row per slice.
	if len(lines) != 3+4 {
		t.Fatalf("got %d lines, want banner+header+4 slices:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "2.5ms ") || !strings.HasPrefix(lines[6], "10.0ms ") {
		t.Fatalf("slice rows are not timed from the end of setup:\n%s", out)
	}
	if again := traceOutput(t, args...); again != out {
		t.Fatalf("same-seed runs differ:\n%s\n---\n%s", out, again)
	}
}

func TestTraceRejectsUnknownPolicy(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-policy", "no-such-policy"}, &out); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
