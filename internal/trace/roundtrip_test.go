package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/taskset"
	"repro/internal/vtime"
)

// randomLog derives a random but encodable event sequence: valid
// kinds, whitespace-free task names (the engine's vocabulary),
// non-negative job indices with the occasional -1 system event, and
// non-decreasing timestamps, as the engine records them.
func randomLog(seed uint64, n int) *Log {
	r := taskset.NewRand(seed)
	tasks := []string{"tau1", "tau2", "t3", "server", ""}
	l := NewLog(n)
	at := vtime.Time(0)
	for i := 0; i < n; i++ {
		at = at.Add(vtime.Duration(r.Intn(3_000_000))) // 0..3 ms steps
		e := Event{
			At:   at,
			Kind: Kind(r.Intn(len(kindNames))),
			Task: tasks[r.Intn(len(tasks))],
			Job:  int64(r.Intn(100)),
		}
		if e.Task == "" {
			e.Job = -1
		}
		if r.Intn(4) == 0 {
			e.Arg = int64(r.Uint64() % 1_000_000)
		}
		l.Append(e)
	}
	return l
}

// TestDecodeRoundTripProperty: for seeded random event sequences,
// encode → decode reproduces the events exactly and re-encoding is
// byte-identical — Decode∘Encode is the identity on encoder output.
func TestDecodeRoundTripProperty(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		l := randomLog(seed, 200)
		enc := l.EncodeString()
		back, err := DecodeString(enc)
		if err != nil {
			t.Fatalf("seed %d: decode of encoder output failed: %v", seed, err)
		}
		if back.Len() != l.Len() {
			t.Fatalf("seed %d: %d events decoded, want %d", seed, back.Len(), l.Len())
		}
		want := l.Events()
		for i, e := range back.Events() {
			if e != want[i] {
				t.Fatalf("seed %d: event %d decoded as %+v, want %+v", seed, i, e, want[i])
			}
		}
		if re := back.EncodeString(); re != enc {
			t.Fatalf("seed %d: re-encode differs from original encoding", seed)
		}
	}
}

// TestDecodeMalformedPositional: malformed input is rejected with the
// line number in the error, so a corrupt multi-megabyte log names the
// offending line instead of just failing.
func TestDecodeMalformedPositional(t *testing.T) {
	valid := "t=0 release tau1 0\nt=1 begin tau1 0\n"
	cases := []struct {
		name string
		line string // appended as line 3
		want string // substring of the expected error
	}{
		{"too-few-fields", "t=2 end tau1", "line 3"},
		{"missing-timestamp", "2 end tau1 0", "line 3: missing t="},
		{"bad-timestamp", "t=abc end tau1 0", "line 3: bad timestamp"},
		{"unknown-kind", "t=2 explode tau1 0", "unknown event kind \"explode\""},
		{"bad-job", "t=2 end tau1 x", "line 3: bad job index"},
		{"bad-arg", "t=2 grant tau1 0 arg=z", "line 3: bad arg"},
		{"unknown-field", "t=2 end tau1 0 blah=1", "line 3: unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeString(valid + tc.line + "\n")
			if err == nil {
				t.Fatalf("malformed line %q decoded without error", tc.line)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestDecodeSkipsBlankAndComments: the tolerated non-event lines do
// not shift the reported line numbers of later errors.
func TestDecodeSkipsBlankAndComments(t *testing.T) {
	in := "# a comment\n\nt=0 release tau1 0\n# another\nt=zzz end tau1 0\n"
	_, err := DecodeString(in)
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("want a line 5 error, got %v", err)
	}
}

// TestDecodeArgZeroCanonicalizes: an explicit arg=0 decodes fine and
// re-encodes without the redundant field (the canonical form).
func TestDecodeArgZeroCanonicalizes(t *testing.T) {
	l, err := DecodeString("t=5 grant tau1 2 arg=0\n")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.EncodeString(), "t=5 grant tau1 2\n"; got != want {
		t.Fatalf("re-encoded %q, want %q", got, want)
	}
}

// TestEncodeUnknownKindDoesNotRoundTrip documents the encoder edge: a
// Kind outside the vocabulary renders as kind(N), which Decode
// rejects — it cannot silently round-trip as a different event.
func TestEncodeUnknownKindDoesNotRoundTrip(t *testing.T) {
	l := NewLog(1)
	l.Append(Event{At: 1, Kind: Kind(200), Task: "x", Job: 0})
	if _, err := DecodeString(l.EncodeString()); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("kind(%d)", 200)) {
		t.Fatalf("want an unknown-kind error naming kind(200), got %v", err)
	}
}
