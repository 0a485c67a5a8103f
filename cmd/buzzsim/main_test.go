package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary re-exec as buzzsim itself: with
// BUZZSIM_BE_MAIN set the process runs main() — flags, os.Exit and all
// — so the error-path tests below observe real exit codes and stderr,
// not a unit-level approximation.
func TestMain(m *testing.M) {
	if os.Getenv("BUZZSIM_BE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runBuzzsim re-execs the test binary as buzzsim with args.
func runBuzzsim(t *testing.T, args ...string) (exitCode int, stderr string) {
	t.Helper()
	code, _, errOut := runBuzzsimFull(t, args...)
	return code, errOut
}

// runBuzzsimFull is runBuzzsim with stdout capture, for tests that
// assert on report output.
func runBuzzsimFull(t *testing.T, args ...string) (exitCode int, stdout, stderr string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "BUZZSIM_BE_MAIN=1")
	var outBuf, errBuf strings.Builder
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	err = cmd.Run()
	if err == nil {
		return 0, outBuf.String(), errBuf.String()
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("buzzsim %v: %v", args, err)
	}
	return ee.ExitCode(), outBuf.String(), errBuf.String()
}

// writeSpec drops a spec file into a temp dir and returns its path.
func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckRejectsMalformedSpecs pins buzzsim's spec pre-flight: a
// malformed workload file must exit non-zero with a validation message
// naming the problem, never run silently on a misread spec.
func TestCheckRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		wantMsg string
	}{
		{
			name:    "unknown top-level field",
			spec:    `{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 4}, "snr_low_db": 10}`,
			wantMsg: "snr_low_db",
		},
		{
			name:    "trailing content after the spec object",
			spec:    `{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 4}} {"workload": {"k": 8}}`,
			wantMsg: "trailing content",
		},
		{
			name:    "trailing garbage token",
			spec:    `{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 4}}]`,
			wantMsg: "trailing content",
		},
		{
			name:    "structurally invalid value",
			spec:    `{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 0}}`,
			wantMsg: "k must be",
		},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "spec.json")
			if err := os.WriteFile(path, []byte(tc.spec), 0o644); err != nil {
				t.Fatal(err)
			}
			code, stderr := runBuzzsim(t, "check", path)
			if code == 0 {
				t.Fatalf("buzzsim check accepted a malformed spec\nspec: %s", tc.spec)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Fatalf("stderr %q does not mention %q", stderr, tc.wantMsg)
			}
		})
	}
}

// TestCheckAcceptsValidSpec is the control: check on a well-formed
// spec exits 0.
func TestCheckAcceptsValidSpec(t *testing.T) {
	path := writeSpec(t, `{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 4}}`)
	if code, stderr := runBuzzsim(t, "check", path); code != 0 {
		t.Fatalf("valid spec rejected: exit %d, stderr %q", code, stderr)
	}
}

// TestSubcommandCheck exercises the subcommand spelling of the
// pre-flight: `buzzsim check <spec>` accepts a valid spec, rejects the
// removed flat layout and malformed specs, and complains about usage
// when the spec path is missing.
func TestSubcommandCheck(t *testing.T) {
	flat := writeSpec(t, `{"k": 4, "trials": 2, "seed": 1}`)
	if code, stderr := runBuzzsim(t, "check", flat); code == 0 || !strings.Contains(stderr, "flat version-1 layout was removed") {
		t.Fatalf("check on a flat-layout spec: exit %d, stderr %q", code, stderr)
	}
	v2 := writeSpec(t, `{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 4}}`)
	if code, stderr := runBuzzsim(t, "check", v2); code != 0 {
		t.Fatalf("check rejected valid v2 spec: exit %d, stderr %q", code, stderr)
	}
	bad := writeSpec(t, `{"version": 2, "trials": 2, "workload": {"k": 0}}`)
	if code, stderr := runBuzzsim(t, "check", bad); code == 0 || !strings.Contains(stderr, "k must be") {
		t.Fatalf("check accepted k=0 spec: exit %d, stderr %q", code, stderr)
	}
	if code, stderr := runBuzzsim(t, "check"); code == 0 || !strings.Contains(stderr, "usage") {
		t.Fatalf("check with no spec path: exit %d, stderr %q", code, stderr)
	}
}

// TestSubcommandRun pins the `buzzsim run <spec>` spelling on a tiny
// scenario: exit 0 and a scheme line on stdout.
func TestSubcommandRun(t *testing.T) {
	path := writeSpec(t, `{"version": 2, "trials": 1, "seed": 7, "workload": {"k": 2}}`)
	code, stdout, stderr := runBuzzsimFull(t, "run", path)
	if code != 0 {
		t.Fatalf("run failed: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "scenario ") || !strings.Contains(stdout, "delivered correct") {
		t.Fatalf("run output missing scheme summary:\n%s", stdout)
	}
}

// sweepTestSpec is a fast arrivals+slo spec for the sweep CLI tests.
const sweepTestSpec = `{
	"version": 2, "name": "cli-sweep", "trials": 2, "seed": 20268,
	"workload": {"k": 2, "arrivals": {"process": "poisson", "rate": 0.2, "count": 4, "dwell": 48}},
	"decode": {"max_slots": 400},
	"slo": {"p99_completion_slots": 10, "rate_lo": 0.05, "rate_hi": 0.8, "probes": 2}
}`

// TestSubcommandSweep runs the same capacity sweep twice and requires
// byte-identical reports — the CLI half of the reproducibility
// contract — then pins the misuse diagnostics.
func TestSubcommandSweep(t *testing.T) {
	path := writeSpec(t, sweepTestSpec)
	code, out1, stderr := runBuzzsimFull(t, "sweep", path)
	if code != 0 {
		t.Fatalf("sweep failed: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out1, "capacity report:") || !strings.Contains(out1, "max sustainable rate:") {
		t.Fatalf("sweep output missing report:\n%s", out1)
	}
	_, out2, _ := runBuzzsimFull(t, "sweep", path)
	if out1 != out2 {
		t.Fatalf("sweep reports differ between runs:\nfirst:\n%s\nsecond:\n%s", out1, out2)
	}
	// A -seed override must change the report header, not crash.
	code, out3, stderr := runBuzzsimFull(t, "sweep", "-seed", "777", path)
	if code != 0 {
		t.Fatalf("sweep -seed failed: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out3, "seed 777") {
		t.Fatalf("sweep -seed 777 report does not echo the seed:\n%s", out3)
	}

	noSLO := writeSpec(t, `{"version": 2, "trials": 2, "seed": 1,
		"workload": {"k": 2, "arrivals": {"process": "poisson", "rate": 0.2, "count": 4}}}`)
	if code, stderr := runBuzzsim(t, "sweep", noSLO); code == 0 || !strings.Contains(stderr, "slo") {
		t.Fatalf("sweep without slo: exit %d, stderr %q", code, stderr)
	}
	noArrivals := writeSpec(t, `{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 2}}`)
	if code, stderr := runBuzzsim(t, "sweep", noArrivals); code == 0 || !strings.Contains(stderr, "arrivals") {
		t.Fatalf("sweep without arrivals: exit %d, stderr %q", code, stderr)
	}
	if code, stderr := runBuzzsim(t, "sweep"); code == 0 || !strings.Contains(stderr, "usage") {
		t.Fatalf("sweep with no spec path: exit %d, stderr %q", code, stderr)
	}
}

// TestSubcommandFlagOrder pins that `run` and `sweep` take their flags
// on either side of the spec path, as their usage lines print them:
// both orders give byte-identical output, and a second path is still a
// usage error (exit 2), whichever side of the flags it stands.
func TestSubcommandFlagOrder(t *testing.T) {
	runSpec := writeSpec(t, `{"version": 2, "trials": 1, "seed": 7, "workload": {"k": 2}}`)
	sweepSpec := writeSpec(t, sweepTestSpec)
	for _, tc := range []struct {
		cmd, path, flag, value string
	}{
		{"run", runSpec, "-repeat", "2"},
		{"sweep", sweepSpec, "-seed", "777"},
	} {
		code, before, stderr := runBuzzsimFull(t, tc.cmd, tc.flag, tc.value, tc.path)
		if code != 0 {
			t.Fatalf("%s %s %s <spec>: exit %d, stderr %q", tc.cmd, tc.flag, tc.value, code, stderr)
		}
		code, after, stderr := runBuzzsimFull(t, tc.cmd, tc.path, tc.flag, tc.value)
		if code != 0 {
			t.Fatalf("%s <spec> %s %s: exit %d, stderr %q", tc.cmd, tc.flag, tc.value, code, stderr)
		}
		if before != after {
			t.Fatalf("%s: flags before and after the spec path differ:\nbefore:\n%s\nafter:\n%s", tc.cmd, before, after)
		}
		for _, args := range [][]string{
			{tc.cmd, tc.path, tc.flag, tc.value, tc.path},
			{tc.cmd, tc.path, tc.path, tc.flag, tc.value},
			{tc.cmd, tc.flag, tc.value, tc.path, "--", tc.path},
		} {
			if code, stderr := runBuzzsim(t, args...); code != 2 || !strings.Contains(stderr, "usage") {
				t.Fatalf("buzzsim %v: exit %d, stderr %q; want exit 2 with usage", args, code, stderr)
			}
		}
	}
	if code, stdout, _ := runBuzzsimFull(t, "run", runSpec, "-repeat", "2"); code != 0 || strings.Count(stdout, "scenario ") != 2 {
		t.Fatalf("run <spec> -repeat 2: exit %d, %d scenario headers, want 2:\n%s", code, strings.Count(stdout, "scenario "), stdout)
	}
}

// TestAdHocRepeatTotals pins the totals line that ends an ad-hoc
// `-repeat` run over seeds 88–95 at K = 8. The per-session lines count
// a wrong payload as delivered; the totals line splits it out. Seed 91
// delivers one wrong payload that is another tag's CRC-valid frame (a
// known defect of the public pipeline, ROADMAP item 9), so the pin
// covers the wrong and copy counters too and moves when that is fixed.
// A single session prints no totals line.
func TestAdHocRepeatTotals(t *testing.T) {
	const want = "totals: 8 sessions, 62/64 identified, 60 delivered correct, 1 wrong (1 another tag's payload), 371 transfer slots"
	code, stdout, stderr := runBuzzsimFull(t, "-k", "8", "-seed", "88", "-repeat", "8")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if got := lines[len(lines)-1]; got != want {
		t.Fatalf("last line\n got %q\nwant %q", got, want)
	}
	if n := strings.Count(stdout, "totals:"); n != 1 {
		t.Fatalf("%d totals lines, want 1:\n%s", n, stdout)
	}
	if _, one, _ := runBuzzsimFull(t, "-k", "8", "-seed", "91"); strings.Contains(one, "totals:") {
		t.Fatalf("a single session printed a totals line:\n%s", one)
	}
}
