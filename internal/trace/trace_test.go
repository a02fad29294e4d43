package trace

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

func ev(atMS int64, k Kind, task string, job int64) Event {
	return Event{At: vtime.AtMillis(atMS), Kind: k, Task: task, Job: job}
}

func sample() *Log {
	l := NewLog()
	l.Append(ev(0, JobRelease, "tau1", 0))
	l.Append(ev(0, JobBegin, "tau1", 0))
	l.Append(ev(29, JobEnd, "tau1", 0))
	l.Append(ev(30, DetectorRelease, "tau1", 0))
	l.Append(ev(1000, JobRelease, "tau3", 0))
	l.Append(ev(1120, DeadlineMiss, "tau3", 0))
	l.Append(Event{At: vtime.AtMillis(1030), Kind: AllowanceGrant, Task: "tau1", Job: 5, Arg: 33_000_000})
	l.Append(Event{At: vtime.AtMillis(2000), Kind: TaskAdded, Task: "dyn", Job: -1})
	return l
}

func TestAppendAndAccessors(t *testing.T) {
	l := sample()
	if l.Len() != 8 {
		t.Fatalf("Len = %d, want 8", l.Len())
	}
	if len(l.Events()) != l.Len() {
		t.Fatal("Events length mismatch")
	}
}

func TestFilterWindowTaskEvents(t *testing.T) {
	l := sample()
	if n := len(l.TaskEvents("tau1")); n != 5 {
		t.Errorf("tau1 events = %d, want 5", n)
	}
	w := l.Window(vtime.AtMillis(1000), vtime.AtMillis(1200))
	if len(w) != 3 {
		t.Errorf("window events = %d, want 3 (release, miss, grant)", len(w))
	}
	misses := l.Filter(func(e Event) bool { return e.Kind == DeadlineMiss })
	if len(misses) != 1 || misses[0].Task != "tau3" {
		t.Errorf("misses = %+v", misses)
	}
}

func TestTasksSorted(t *testing.T) {
	got := sample().Tasks()
	want := []string{"dyn", "tau1", "tau3"}
	if len(got) != len(want) {
		t.Fatalf("Tasks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tasks = %v, want %v", got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := sample()
	text := l.EncodeString()
	back, err := DecodeString(text)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, text)
	}
	if back.Len() != l.Len() {
		t.Fatalf("round trip lost events: %d vs %d", back.Len(), l.Len())
	}
	got := back.Events()
	for i, e := range l.Events() {
		if got[i] != e {
			t.Errorf("event %d mismatch: %+v vs %+v", i, e, got[i])
		}
	}
}

func TestDecodeToleratesCommentsAndBlankLines(t *testing.T) {
	text := "# a comment\n\nt=1000000 release tau1 0\n"
	l, err := DecodeString(text)
	if err != nil || l.Len() != 1 {
		t.Fatalf("decode: %v, len %d", err, l.Len())
	}
	e := l.Events()[0]
	if e.At != vtime.AtMillis(1) || e.Kind != JobRelease || e.Task != "tau1" {
		t.Errorf("decoded %+v", e)
	}
}

func TestDecodeSystemEvents(t *testing.T) {
	// "-" denotes the empty task name.
	l, err := DecodeString("t=5 addtask - -1\n")
	if err != nil {
		t.Fatal(err)
	}
	if l.Events()[0].Task != "" || l.Events()[0].Job != -1 {
		t.Errorf("decoded %+v", l.Events()[0])
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"t=1 release tau1",          // missing job
		"x=1 release tau1 0",        // missing t=
		"t=abc release tau1 0",      // bad timestamp
		"t=1 explode tau1 0",        // unknown kind
		"t=1 release tau1 zero",     // bad job
		"t=1 release tau1 0 arg=z",  // bad arg
		"t=1 release tau1 0 zork=1", // unknown field
	}
	for _, s := range bad {
		if _, err := DecodeString(s); err == nil {
			t.Errorf("expected decode error for %q", s)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := JobRelease; k <= TaskRemoved; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		back, err := parseKind(s)
		if err != nil || back != k {
			t.Errorf("parseKind(%q) = %v, %v", s, back, err)
		}
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range kind must still render")
	}
}

// Property: encode/decode round-trips arbitrary events.
func TestQuickRoundTrip(t *testing.T) {
	f := func(atNS int64, kindRaw uint8, job int64, arg int64) bool {
		if atNS < 0 {
			atNS = -atNS
		}
		k := Kind(kindRaw % 13)
		l := NewLog()
		l.Append(Event{At: vtime.Time(atNS), Kind: k, Task: "t", Job: job, Arg: arg})
		back, err := DecodeString(l.EncodeString())
		if err != nil || back.Len() != 1 {
			return false
		}
		return back.Events()[0] == l.Events()[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendDoesNotAllocateWithinCapacity: once the first Append has
// allocated the first chunk, appends that fit it never allocate — the
// §5 recording discipline.
func TestAppendDoesNotAllocateWithinCapacity(t *testing.T) {
	const runs = 100
	l := NewLog()
	l.Append(Event{At: 0, Kind: JobRelease, Task: "x"})
	// AllocsPerRun calls the function once more to warm up.
	allocs := testing.AllocsPerRun(runs, func() {
		l.Append(Event{At: 1, Kind: JobBegin, Task: "x"})
	})
	if allocs > 0 {
		t.Errorf("Append allocates %.1f per call within capacity; the §5 recording discipline requires none", allocs)
	}
	if l.Len() != runs+2 || l.full != nil {
		t.Fatalf("Len = %d in %d chunks, want %d in one", l.Len(), len(l.full)+1, runs+2)
	}
}

// chunkEnds returns the event counts at which the first k chunks are
// exactly full: 256, 768, 1 792, 3 840, 7 936, then one more chunkSize
// per chunk.
func chunkEnds(k int) []int {
	ends := make([]int, k)
	for i, c, n := 0, firstChunk, 0; i < k; i++ {
		n += c
		ends[i] = n
		c = min(2*c, chunkSize)
	}
	return ends
}

// TestAppendNeverCopies: growing across seven chunks leaves the first
// recorded event where it was, doubles each chunk's capacity up to
// chunkSize, and costs at most one allocation per chunk: each added
// chunk, plus the short chunk list.
func TestAppendNeverCopies(t *testing.T) {
	const chunks = 7
	ends := chunkEnds(chunks)
	fill := func(n int) *Log {
		l := NewLog()
		for i := 0; i < n; i++ {
			l.Append(Event{At: vtime.Time(i), Kind: JobBegin, Task: "a", Job: int64(i)})
		}
		return l
	}
	l := fill(1)
	first := &l.Events()[0]
	for i := 1; i < ends[chunks-1]; i++ {
		l.Append(Event{At: vtime.Time(i), Kind: JobBegin, Task: "a", Job: int64(i)})
	}
	if got := len(l.full) + 1; got != chunks {
		t.Fatalf("log holds %d chunks, want %d", got, chunks)
	}
	for i, c := range append(l.full, l.tail) {
		want := min(firstChunk<<i, chunkSize)
		if cap(c) != want || len(c) != want {
			t.Errorf("chunk %d holds %d of %d events, want %d of %d", i, len(c), cap(c), want, want)
		}
	}
	if &l.full[0][0] != first {
		t.Error("growth moved the first recorded event")
	}
	if *first != (Event{At: 0, Kind: JobBegin, Task: "a"}) {
		t.Errorf("first event changed to %+v", *first)
	}
	// AllocsPerRun averages over whole runs, so a stray runtime
	// allocation cannot tip the count; NewLog's own allocations and
	// the first chunk's cancel.
	one := testing.AllocsPerRun(10, func() { fill(ends[0]) })
	all := testing.AllocsPerRun(10, func() { fill(ends[chunks-1]) })
	if grown := all - one; grown > chunks {
		t.Errorf("growing from one chunk to %d allocated %.0f times, want at most %d", chunks, grown, chunks)
	}
}

// TestChunkBoundaries checks every accessor against a flat slice of the
// same events at the sizes where chunking could go wrong: exactly one
// chunk, one chunk plus one event, the five doubling chunks full, one
// event past six chunks, and seven full chunks.
func TestChunkBoundaries(t *testing.T) {
	names := []string{"b", "a", "", "c"}
	ends := chunkEnds(7)
	for _, n := range []int{ends[0], ends[0] + 1, ends[4], ends[5] + 1, ends[6]} {
		l := NewLog()
		var flat []Event
		for i := 0; i < n; i++ {
			e := Event{At: vtime.Time(i), Kind: Kind(i % 14), Task: names[i%len(names)], Job: int64(i / 4), Arg: int64(i % 3)}
			l.Append(e)
			flat = append(flat, e)
		}
		name := fmt.Sprintf("n=%d", n)
		if l.Len() != n {
			t.Fatalf("%s: Len = %d", name, l.Len())
		}
		var walked []Event
		for e := range l.All() {
			walked = append(walked, e)
		}
		sameEvents(t, name+" All", walked, flat)
		keep := func(e Event) bool { return e.Kind == JobEnd || e.Arg == 2 }
		var kept, win, ofA []Event
		from, to := vtime.Time(ends[0]-3), vtime.Time(ends[0]+2)
		for _, e := range flat {
			if keep(e) {
				kept = append(kept, e)
			}
			if !e.At.Before(from) && e.At.Before(to) {
				win = append(win, e)
			}
			if e.Task == "a" {
				ofA = append(ofA, e)
			}
		}
		sameEvents(t, name+" Filter", l.Filter(keep), kept)
		sameEvents(t, name+" Window", l.Window(from, to), win)
		sameEvents(t, name+" TaskEvents", l.TaskEvents("a"), ofA)
		if got := strings.Join(l.Tasks(), ","); got != "a,b,c" {
			t.Errorf("%s: Tasks = %s", name, got)
		}
		var want strings.Builder
		bw := bufio.NewWriter(&want)
		for _, e := range flat {
			if err := writeEvent(bw, e); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if l.EncodeString() != want.String() {
			t.Errorf("%s: Encode differs from the flat encoding", name)
		}
		sameEvents(t, name+" Events", l.Events(), flat)
		// Events only reads the log: appending after it keeps
		// record order.
		extra := Event{At: vtime.Time(n), Kind: JobEnd, Task: "z"}
		l.Append(extra)
		flat = append(flat, extra)
		sameEvents(t, name+" Events after append", l.Events(), flat)
		walked = walked[:0]
		for e := range l.All() {
			walked = append(walked, e)
		}
		sameEvents(t, name+" All after append", walked, flat)
	}
}

// TestAllStopsEarly: breaking out of a walk stops it in either chunk.
func TestAllStopsEarly(t *testing.T) {
	l := NewLog()
	for i := 0; i < firstChunk+2; i++ {
		l.Append(Event{At: vtime.Time(i)})
	}
	for _, stop := range []int{0, 1, firstChunk + 1} {
		seen := 0
		for e := range l.All() {
			if int(e.At) == stop {
				break
			}
			seen++
		}
		if seen != stop {
			t.Errorf("walk broken at %d saw %d events", stop, seen)
		}
	}
}

// TestAllDoesNotAllocate: the whole-log walk allocates nothing.
func TestAllDoesNotAllocate(t *testing.T) {
	l := NewLog()
	for i := 0; i < 2*chunkSize+7; i++ {
		l.Append(Event{At: vtime.Time(i), Kind: JobRelease, Task: "a"})
	}
	var sum vtime.Time
	allocs := testing.AllocsPerRun(10, func() {
		for e := range l.All() {
			sum += e.At
		}
	})
	if allocs != 0 {
		t.Errorf("All allocates %.0f times per walk, want 0", allocs)
	}
}

func sameEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d events, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: event %d = %+v, want %+v", what, i, got[i], want[i])
			return
		}
	}
}
