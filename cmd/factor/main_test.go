package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runAsFactorEnv makes the test binary run main instead of the tests,
// so the table test drives the real command line.
const runAsFactorEnv = "FACTOR_CMD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsFactorEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFactor runs the command with args and returns its exit code and
// standard error.
func runFactor(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsFactorEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("factor %v: %v", args, err)
	return 0, ""
}

// TestATPGRejectsExtractionOnlyFlags: in -atpg mode every
// extraction-only flag set on the command line is a usage error (exit
// 2) naming the flag, even when set to its default value; other flags
// pass the check (a missing design file then fails as an input error,
// exit 1).
func TestATPGRejectsExtractionOnlyFlags(t *testing.T) {
	missing := t.TempDir() + "/missing.v"
	for _, tc := range []struct {
		args     []string
		wantCode int
		wantErr  string
	}{
		{[]string{"-atpg", "-piers"}, 2, "-piers cannot be used with -atpg"},
		{[]string{"-atpg", "-stats=false"}, 2, "-stats cannot be used with -atpg"},
		{[]string{"-atpg", "-stats"}, 2, "-stats cannot be used with -atpg"},
		{[]string{"-atpg", "-o", "out.v"}, 2, "-o cannot be used with -atpg"},
		{[]string{"-atpg", "-dir", "outdir"}, 2, "-dir cannot be used with -atpg"},
		{[]string{"-atpg", "-piers", "-o", "out.v", "-mut", "u_core.u_alu"}, 2, "-o, -piers cannot be used with -atpg"},
		{[]string{"-atpg", "-design", missing, "-mut", "u_core.u_alu", "-j", "1"}, 1, "missing.v"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stderr := runFactor(t, tc.args...)
			if code != tc.wantCode || !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("exit %d, stderr %q; want exit %d and %q", code, stderr, tc.wantCode, tc.wantErr)
			}
		})
	}
}
