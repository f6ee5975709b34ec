package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := strings.Fields(out.String())
	if len(got) != 17 || got[0] != "E1" || got[16] != "E17" {
		t.Errorf("list = %v", got)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-e", "E2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "16.2000") {
		t.Errorf("E2 output missing the 16.2 optimum:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-e", "E99"}, &out, &errOut); code == 0 {
		t.Error("unknown experiment should fail")
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-bogus"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

func TestRunOutputFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-e", "E1", "-o", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "37.80") {
		t.Errorf("output file missing E1 numbers:\n%s", data)
	}
	// Unwritable output path fails cleanly.
	if code := run(context.Background(), []string{"-e", "E1", "-o", filepath.Join(dir, "nope", "x.txt")}, &out, &errOut); code != 1 {
		t.Errorf("unwritable path exit = %d, want 1", code)
	}
}

func TestRunMarkdown(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-e", "E1", "-md"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "## E1 —") || !strings.Contains(s, "|---|") {
		t.Errorf("not Markdown output:\n%s", s)
	}
}
