package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The files under testdata/ are karsim outputs recorded from a known-
// good build: metric dumps, scenario verdicts and (for the large ones)
// SHA-256 digests in testdata/SHA256SUMS. They pin the simulator's
// observable bytes, so any change to the data plane, the scheduler or
// the sharded engine that moves a single counter, timestamp or event
// shows up here. scripts/check.sh compares the slower outputs (fig4,
// flap-react-net15 trace exports, the dtree verdict) against the same
// directory.

// runQuiet runs karsim with args, discarding its stdout tables.
func runQuiet(t *testing.T, args ...string) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	if err := run(args); err != nil {
		t.Fatalf("karsim %s: %v", strings.Join(args, " "), err)
	}
}

// goldenSums reads testdata/SHA256SUMS (sha256sum's output format).
func goldenSums(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "SHA256SUMS"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sums := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			sums[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums
}

// sameAsGolden fails unless the file at got is byte-identical to
// testdata/<name>.
func sameAsGolden(t *testing.T, label, got, name string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	have, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Errorf("%s: %s differs from testdata/%s (%d vs %d bytes)", label, filepath.Base(got), name, len(have), len(want))
	}
}

// sameDigest fails unless the file at got hashes to name's entry in
// testdata/SHA256SUMS.
func sameDigest(t *testing.T, label, got, name string, sums map[string]string) {
	t.Helper()
	want, ok := sums[name]
	if !ok {
		t.Fatalf("testdata/SHA256SUMS has no entry for %s", name)
	}
	have, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(have)
	if hex.EncodeToString(h[:]) != want {
		t.Errorf("%s: %s digest differs from testdata/SHA256SUMS entry %s", label, filepath.Base(got), name)
	}
}

// TestScenarioMatchesGolden replays flap-net15 (link flaps plus a gray
// impairment, so the serialized RNG draw order is exercised) and
// flap-react-net15 (the same with a reactive controller) at one and
// four workers against their recorded verdicts and metric dumps.
func TestScenarioMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"flap-net15", "flap-react-net15"} {
		for _, workers := range []string{"1", "4"} {
			label := name + " -workers " + workers
			prom := filepath.Join(dir, name+"-"+workers+".prom")
			verdict := filepath.Join(dir, name+"-"+workers+".verdict.json")
			runQuiet(t, "-scenario", filepath.Join("..", "..", "examples", "scenarios", name+".json"),
				"-workers", workers, "-metrics", prom, "-verdict-json", verdict)
			sameAsGolden(t, label, verdict, name+".verdict.json")
			sameAsGolden(t, label, prom, name+".prom")
			sameAsGolden(t, label, prom+".json", name+".prom.json")
		}
	}
}

// TestScaleMatchesGolden runs the check.sh scale workload (fattree:4,
// 20k flows, two failed links) at 1, 2 and 4 shards, and at 4 shards
// with 4 workers, against the recorded 1-shard dumps: the cut-link
// handover and parallel windows must leave every byte in place.
func TestScaleMatchesGolden(t *testing.T) {
	sums := goldenSums(t)
	dir := t.TempDir()
	for _, v := range [][2]string{{"1", "1"}, {"2", "1"}, {"4", "1"}, {"4", "4"}} {
		label := "scale -shards " + v[0] + " -workers " + v[1]
		prom := filepath.Join(dir, "sh"+v[0]+"w"+v[1]+".prom")
		runQuiet(t, "-exp", "scale", "-topo", "fattree:4", "-flows", "20000", "-pairs", "16",
			"-rate", "20", "-duration", "500ms", "-fail-links", "2", "-seed", "3",
			"-shards", v[0], "-workers", v[1], "-metrics", prom)
		sameAsGolden(t, label, prom, "scale-fattree4.prom")
		sameDigest(t, label, prom+".json", "scale-fattree4.prom.json", sums)
	}
}
