package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Exit-code golden tests: the typed failure paths — budget, deadline,
// internal error — and the retry/checkpoint/resume flags each map to a
// pinned exit status, so scripts and CI can dispatch on $? without
// parsing stderr.

func specArgs(t *testing.T, spec string) (string, string) {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "specs")
	p := filepath.Join(dir, spec)
	if _, err := os.Stat(p); err != nil {
		t.Skipf("%s not present", spec)
	}
	return p, filepath.Join(dir, "registrar.db")
}

func goldenBytes(t *testing.T, spec string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", spec+".golden.xml"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	return want
}

func TestExitBudget(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	var out, errBuf bytes.Buffer
	code := run([]string{"-spec", spec, "-data", data, "-max-nodes", "2"}, &out, &errBuf)
	if code != 4 {
		t.Fatalf("node budget: exit %d, want 4 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "observed") || !strings.Contains(errBuf.String(), "limit 2") {
		t.Errorf("budget message should report observed and limit: %s", errBuf.String())
	}
}

func TestExitTimeout(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-spec", spec, "-data", data, "-timeout", "1ns"}, &out, &errBuf); code != 5 {
		t.Fatalf("deadline: exit %d, want 5 (stderr: %s)", code, errBuf.String())
	}
	// Retries get a fresh 1ns deadline each attempt, so the run still
	// fails with 5 — but only after visibly retrying.
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-spec", spec, "-data", data, "-timeout", "1ns", "-retries", "2"}, &out, &errBuf); code != 5 {
		t.Fatalf("deadline with retries: exit %d, want 5 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "retrying") {
		t.Errorf("retried deadline failure should say so on stderr: %s", errBuf.String())
	}
}

func TestExitInternal(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-spec", spec, "-data", data, "-inject", "query:1:internal"}, &out, &errBuf); code != 1 {
		t.Fatalf("internal error: exit %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "internal error") {
		t.Errorf("stderr should diagnose the internal error: %s", errBuf.String())
	}
}

func TestExitInjectValidation(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	for _, bad := range []string{"query", "query:0:transient", "query:2:bogus", "nope:1:transient"} {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-spec", spec, "-data", data, "-inject", bad}, &out, &errBuf); code != 2 {
			t.Errorf("-inject %q: exit %d, want 2", bad, code)
		}
	}
}

// TestExitRetiredPlanFlag: rule queries always run on compiled plans,
// so the old -plan switch is an unknown flag — a usage error.
func TestExitRetiredPlanFlag(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-spec", spec, "-data", data, "-plan=off"}, &out, &errBuf); code != 2 {
		t.Fatalf("-plan=off: exit %d, want 2 (stderr: %s)", code, errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("-plan=off produced output: %q", out.String())
	}
}

// TestRetryTransientSucceeds: a transient fault plus -retries recovers
// to exit 0 with output byte-identical to the fault-free golden file.
func TestRetryTransientSucceeds(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	var out, errBuf bytes.Buffer
	code := run([]string{"-spec", spec, "-data", data, "-inject", "query:3:transient", "-retries", "2", "-backoff", "1ms"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("transient with retries: exit %d, want 0 (stderr: %s)", code, errBuf.String())
	}
	if !bytes.Equal(out.Bytes(), goldenBytes(t, "tau1.pt")) {
		t.Error("retried run's output differs from the golden bytes")
	}
	if !strings.Contains(errBuf.String(), "retrying") {
		t.Errorf("retry should be visible on stderr: %s", errBuf.String())
	}
}

// TestPermanentNotRetried: an unmarked error fails with exit 1 on the
// first attempt even when retries are available.
func TestPermanentNotRetried(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-spec", spec, "-data", data, "-inject", "query:1:permanent", "-retries", "3"}, &out, &errBuf); code != 1 {
		t.Fatalf("permanent: exit %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	if strings.Contains(errBuf.String(), "retrying") {
		t.Errorf("permanent error must not be retried: %s", errBuf.String())
	}
}

// TestSelfHealingRetries: a node budget too small for any single
// attempt still completes under -retries because progress accumulates
// across attempts — and the bytes match the golden file exactly.
func TestSelfHealingRetries(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	var out, errBuf bytes.Buffer
	code := run([]string{"-spec", spec, "-data", data, "-max-nodes", "6", "-retries", "100", "-backoff", "1ms"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("self-healing: exit %d, want 0 (stderr: %s)", code, errBuf.String())
	}
	if !bytes.Equal(out.Bytes(), goldenBytes(t, "tau1.pt")) {
		t.Error("self-healed output differs from the golden bytes")
	}
}

// TestCheckpointResume: a budget failure writes a checkpoint file;
// repeatedly resuming it (fresh budget per invocation) converges to
// exit 0 with the golden bytes — the cross-process recovery story.
func TestCheckpointResume(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	ck := filepath.Join(t.TempDir(), "run.checkpoint")

	var out, errBuf bytes.Buffer
	code := run([]string{"-spec", spec, "-data", data, "-max-nodes", "6", "-checkpoint", ck}, &out, &errBuf)
	if code != 4 {
		t.Fatalf("first run: exit %d, want 4 (stderr: %s)", code, errBuf.String())
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	if !strings.Contains(errBuf.String(), "checkpoint written") {
		t.Errorf("stderr should point at the checkpoint: %s", errBuf.String())
	}

	for hop := 0; hop < 100; hop++ {
		out.Reset()
		errBuf.Reset()
		code = run([]string{"-spec", spec, "-data", data, "-max-nodes", "6", "-checkpoint", ck, "-resume", ck}, &out, &errBuf)
		if code == 0 {
			break
		}
		if code != 4 {
			t.Fatalf("hop %d: exit %d, want 0 or 4 (stderr: %s)", hop, code, errBuf.String())
		}
	}
	if code != 0 {
		t.Fatal("resume hops never completed")
	}
	if !bytes.Equal(out.Bytes(), goldenBytes(t, "tau1.pt")) {
		t.Error("resumed output differs from the golden bytes")
	}
}

// TestResumeWrongSpec: a checkpoint must not resume against a
// different transducer.
func TestResumeWrongSpec(t *testing.T) {
	spec, data := specArgs(t, "tau1.pt")
	spec3, _ := specArgs(t, "tau3.pt")
	ck := filepath.Join(t.TempDir(), "run.checkpoint")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-spec", spec, "-data", data, "-max-nodes", "6", "-checkpoint", ck}, &out, &errBuf); code != 4 {
		t.Fatalf("checkpoint run: exit %d (stderr: %s)", code, errBuf.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-spec", spec3, "-data", data, "-resume", ck}, &out, &errBuf); code != 1 {
		t.Fatalf("wrong-spec resume: exit %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "fingerprint") && !strings.Contains(errBuf.String(), "snapshot") {
		t.Errorf("stderr should explain the fingerprint mismatch: %s", errBuf.String())
	}
}
