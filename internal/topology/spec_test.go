package topology

import (
	"runtime"
	"testing"
)

// TestFromSpecRejectsOversizeCheaply: specs far beyond the generator
// bounds, including ones whose size arithmetic would overflow int, are
// refused before the generator allocates anything sized by them.
func TestFromSpecRejectsOversizeCheaply(t *testing.T) {
	for _, spec := range []string{
		"fattree:100000",
		"fattree:9223372036854775806",
		"clos:100000:100000",
		"rand:1000000000:0:2:1",
		"isp:1000000000:2:10:1",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := FromSpec(spec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("FromSpec(%q) built %d switches, want an error", spec, len(g.CoreNodes()))
			continue
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("FromSpec(%q) allocated %d bytes before rejecting, want < 1 MiB", spec, alloc)
		}
	}
}

// TestFromSpecAdmitsRepoSpecs: every generated topology the experiments,
// scenarios, benchmarks and docs name stays within the bounds, with the
// planned sizes matching what the generator builds.
func TestFromSpecAdmitsRepoSpecs(t *testing.T) {
	for _, spec := range []string{
		"fattree:4", "fattree:8", "fattree:12", "fattree:16", "fattree:28",
		"clos:4:2", "clos:6:3", "clos:8:4",
		"rand:4:0:2:1", "rand:10:4:4:9", "rand:12:4:6:9", "rand:12:6:5:3",
		"isp:9:2:2:1", "isp:10:2:4:3", "isp:40:2:8:1", "isp:40:2:8:2", "isp:60:3:8:1", "isp:200:2:40:7",
	} {
		g, err := FromSpec(spec)
		if err != nil {
			t.Errorf("FromSpec(%q): %v", spec, err)
			continue
		}
		if s, l := len(g.CoreNodes()), len(g.Links()); s > maxGenSwitches || l > maxGenLinks {
			t.Errorf("FromSpec(%q): %d switches, %d links exceed the bounds", spec, s, l)
		}
	}
}

// FuzzFromSpec: no spec panics the parser or a generator, and every
// spec either errors or yields a valid graph within the bounds. The
// seed corpus in testdata/fuzz/FuzzFromSpec covers every spec form and
// the oversize specs above.
func FuzzFromSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := FromSpec(spec)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("FromSpec(%q) built an invalid graph: %v", spec, err)
		}
		if s, l := len(g.CoreNodes()), len(g.Links()); s > maxGenSwitches || l > maxGenLinks {
			t.Fatalf("FromSpec(%q): %d switches, %d links exceed the bounds", spec, s, l)
		}
	})
}
