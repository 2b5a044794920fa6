package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelectorErrors: a missing, doubled or unknown artifact selector
// fails with the exit status and message the command documents.
func TestSelectorErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "exactly one of -table or -fig"},
		{[]string{"-table", "1", "-fig", "2"}, 2, "exactly one of -table or -fig"},
		{[]string{"-table", "2"}, 1, "unknown table 2 (have 1, 3, 4, 5)"},
		{[]string{"-fig", "4"}, 1, "unknown figure 4 (have 2, 3, 6)"},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d", c.args, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q lacks %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout on failure", c.args, stdout.Len())
		}
	}
}

// TestFigureToFile: -o writes the figure's DOT source, and the summary
// note goes to stderr.
func TestFigureToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "figure3.dot")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "3", "-o", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	dot, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(dot), "digraph") {
		t.Fatalf("figure 3 is not DOT: %.40q", dot)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "Figure 3 example") {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

// TestTableToStdout: a table renders to stdout at a small scale.
func TestTableToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "1", "-scale", "64"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Darknet") {
		t.Fatalf("table 1 lacks the Darknet row:\n%s", stdout.String())
	}
}
