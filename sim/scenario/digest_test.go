package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenDigests pins the content address of every committed example
// scenario. These are the cache keys cmd/rtserved uses: if one of
// them changes, either the scenario file changed (update the entry)
// or the canonical encoding / SchemaVersion changed — in which case
// every served cache entry is invalidated, which is exactly the
// behaviour the digest exists to force. Never "fix" this test by
// recomputing blindly: first decide whether simulation results for
// unchanged files changed, and bump SchemaVersion if so.
var goldenDigests = map[string]string{
	// All entries re-pinned at SchemaVersion 3 (the arrivals block:
	// open stochastic and trace-driven workload sources joined the
	// codec, and the taskset generator's deadline-slack clamp fix
	// changed generator-derived results — periodic scenario files
	// replay byte-identically, but the cache domain separates on the
	// version).
	"aperiodic-server.json":      "sha256:0a1975c75249d0b6f1d9985dac82416ea7ff6ec25b1aa48c359b3ee1ee2fe124",
	"edf-overload.json":          "sha256:5e8f231cf1edc5394528783fe1449ba3c7037fc848ce8c55e842a45f025c74ed",
	"figure5.json":               "sha256:d2b6203993d345b6ce92bf57e5acab5c48b6942235c8028976ebb8fdc8ac9c9d",
	"jitter-stop.json":           "sha256:d7f2c2e0714664ceffe4a5908569e5c2a5b73bae6b96c25c3ed768383ba0560d",
	"multicore-global.json":      "sha256:700536825508fdbe352d9423c80f2a518906f764ad397561c4fab37700dc0ea0",
	"multicore-partitioned.json": "sha256:79c13ed9ac0ca918e91c7cf8af6ff6c05c5c4601bd2c92902c789bd232ebba1b",
	"open-arrivals.json":         "sha256:31e9cabd795328d03a29c50897d7a5b755c0bccbea3e2683182409ced7a8cf42",
	"scaling-100.json":           "sha256:b0024d310bdddbb11d5021af554d639fc9e90b0e8916335d6079cf3199648fa3",
	"stream-soak.json":           "sha256:9672f7d49150f7cca309e16f66fb7e42487ceea96bd6aed080a04336f395e5d8",
}

// TestDigestGoldens pins Digest for every testdata scenario, and
// requires every scenario file to have a pinned digest (a new example
// must be added here, so cache keys can never drift unnoticed).
func TestDigestGoldens(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "scenarios")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(goldenDigests) {
		t.Errorf("testdata/scenarios has %d files but %d golden digests are pinned; add the missing entries", len(files), len(goldenDigests))
	}
	for _, path := range files {
		base := filepath.Base(path)
		t.Run(base, func(t *testing.T) {
			want, ok := goldenDigests[base]
			if !ok {
				t.Fatalf("no golden digest pinned for %s", base)
			}
			sc, err := DecodeFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.Digest()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("digest drifted:\n got %s\nwant %s\n(see the goldenDigests comment before updating)", got, want)
			}
		})
	}
}

// TestDigestFormatIndependent pins the canonicalization property the
// cache relies on: re-formatted JSON of the same scenario (different
// whitespace, numeric millisecond durations instead of strings)
// digests identically, and any semantic change digests differently.
func TestDigestFormatIndependent(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "scenarios", "figure5.json")
	sc, err := DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}

	// Same document, hostile formatting: strip all indentation.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.ReplaceAll(string(raw), "\n  ", "\n")
	sc2, err := Decode(strings.NewReader(mangled))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("re-formatted scenario digests differently: %s vs %s", got, want)
	}

	// One semantic bit flipped: different address.
	sc3 := *sc
	sc3.Seed++
	changed, err := sc3.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if changed == want {
		t.Error("semantically different scenario produced the same digest")
	}
}

// signedFromDoc is a two-task scenario whose interference fault starts
// at from: "-0.5ms" covers tau1's job released at 0, "0.5ms" does not.
func signedFromDoc(from string) string {
	return `{
  "name": "signed-from",
  "tasks": [
    {"name": "tau1", "priority": 20, "period": "200ms", "deadline": "70ms", "cost": "29ms"},
    {"name": "tau2", "priority": 18, "period": "250ms", "deadline": "120ms", "cost": "29ms"}
  ],
  "faults": [
    {"task": "tau1", "kind": "interference", "extra": "10ms", "from": "` + from + `", "to": "300ms"}
  ],
  "horizon": "1000ms"
}`
}

// TestNegativeSubMillisecondDigest: a negative duration shorter than a
// millisecond keeps its sign through Marshal and Digest, so two
// scenarios that differ only in that sign get different cache keys,
// and each survives a Marshal/Decode round trip unchanged.
func TestNegativeSubMillisecondDigest(t *testing.T) {
	var digests []string
	for _, from := range []string{"-0.5ms", "0.5ms"} {
		sc, err := Decode(strings.NewReader(signedFromDoc(from)))
		if err != nil {
			t.Fatal(err)
		}
		d, err := sc.Digest()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Faults[0].From.String(); got != from {
			t.Errorf("from %q reads back as %q after Marshal and Decode", from, got)
		}
		if d2, err := back.Digest(); err != nil || d2 != d {
			t.Errorf("from %q: digest %s after Marshal and Decode, %s before (%v)", from, d2, d, err)
		}
		digests = append(digests, d)
	}
	if digests[0] == digests[1] {
		t.Errorf("from -0.5ms and 0.5ms share digest %s", digests[0])
	}
}
