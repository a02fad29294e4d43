package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/vtime"
)

// FuzzDecode fuzzes the log parser with arbitrary text: it must never
// panic, and whatever it accepts must re-encode canonically — i.e.
// encode(decode(s)) is a fixpoint: decoding it again succeeds and
// yields identical bytes. This is the property that lets a spilled
// trace be re-read and re-spilled indefinitely without drift.
func FuzzDecode(f *testing.F) {
	f.Add("t=0 release tau1 0\nt=2 end tau1 0\n")
	f.Add("t=5 grant tau1 2 arg=120\n")
	f.Add("# comment\n\nt=0 detector - -1\n")
	f.Add("t=abc end tau1 0\n")
	f.Add("t=-3 begin a 0\nt=9223372036854775807 miss b 1\n")
	f.Fuzz(func(t *testing.T, s string) {
		l, err := DecodeString(s)
		if err != nil {
			return // rejection is fine; panics are not
		}
		canon := l.EncodeString()
		back, err := DecodeString(canon)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\ninput: %q\ncanonical: %q", err, s, canon)
		}
		if re := back.EncodeString(); re != canon {
			t.Fatalf("encode/decode not a fixpoint:\nfirst:  %q\nsecond: %q", canon, re)
		}
	})
}

// fuzzEvents turns fuzz bytes into an event sequence. Each event reads
// a control byte c, then the bytes its fields take (a missing byte
// reads as zero): c&7 moves At up or down by a byte's worth, to ±2^63,
// to an arbitrary 8-byte instant, or leaves it; the next byte is the
// kind, 14 and above included; c>>3&3 picks Job −1, one byte, eight
// bytes or the largest int64; c>>5&1 an Arg of 0 or any eight bytes;
// and c>>6 the task: the empty name, one of eight repeating names, one
// of 65 536, or a burst of one to 256 events, each naming a task never
// seen before, so a few bytes reach hundreds of names and multi-byte
// table indices.
func fuzzEvents(data []byte) []Event {
	next := func(n int) uint64 {
		var x uint64
		for i := 0; i < n; i++ {
			x <<= 8
			if len(data) > 0 {
				x |= uint64(data[0])
				data = data[1:]
			}
		}
		return x
	}
	var (
		out   []Event
		at    vtime.Time
		fresh int
	)
	for len(data) > 0 {
		c := next(1)
		switch c & 7 {
		case 0:
			at += vtime.Time(next(1))
		case 1:
			at -= vtime.Time(next(1))
		case 2:
			at = math.MaxInt64
		case 3:
			at = math.MinInt64
		case 4:
			at = vtime.Time(next(8))
		}
		e := Event{At: at, Kind: Kind(next(1))}
		switch c >> 3 & 3 {
		case 0:
			e.Job = -1
		case 1:
			e.Job = int64(next(1))
		case 2:
			e.Job = int64(next(8))
		case 3:
			e.Job = math.MaxInt64
		}
		if c>>5&1 == 1 {
			e.Arg = int64(next(8))
		}
		switch c >> 6 {
		case 1:
			e.Task = fmt.Sprintf("t%d", next(1)%8)
		case 2:
			e.Task = fmt.Sprintf("n%d", next(2))
		case 3:
			for k := next(1); k > 0; k-- {
				fresh++
				out = append(out, Event{At: e.At + vtime.Time(k), Kind: e.Kind, Task: fmt.Sprintf("f%d", fresh), Job: e.Job, Arg: e.Arg})
			}
			fresh++
			e.Task = fmt.Sprintf("f%d", fresh)
		}
		out = append(out, e)
	}
	return out
}

// FuzzLog records a fuzzed event sequence in a Log and requires every
// accessor to agree with a flat slice of the same events: Len, All,
// TaskIndexed (each name's index is its rank of first appearance),
// Events, Filter, Window, TaskEvents, Tasks, Releases and Encode.
func FuzzLog(f *testing.F) {
	// Three bursts: 768 fresh names, two-byte table indices, huge
	// jobs, and more than one chunk.
	f.Add([]byte{0xc0, 1, 0, 0xff, 0xc0, 1, 4, 0xff, 0xd0, 2, 5, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0xff})
	// Instants at ±2^63 and arbitrary, kinds 14 and 200, jobs −1 and
	// MaxInt64, negative and huge args, unnamed events.
	f.Add([]byte{0x03, 14, 0x02, 200, 0x98, 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 0xa1, 5, 0xff, 0, 0, 0, 0, 0, 0, 1, 0x81, 0x3f, 1})
	// Repeating names with At rising and falling.
	f.Add([]byte{0x48, 5, 0, 0, 1, 0x49, 3, 1, 0, 1, 0x48, 9, 4, 0, 2, 0xa1, 7, 10, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0x12, 0x34})
	f.Fuzz(func(t *testing.T, data []byte) {
		flat := fuzzEvents(data)
		l := NewLog()
		for _, e := range flat {
			l.Append(e)
		}
		if l.Len() != len(flat) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(flat))
		}
		if len(flat) > 0 {
			sameGeometry(t, l)
		}
		var walked []Event
		for e := range l.All() {
			walked = append(walked, e)
		}
		sameEvents(t, "All", walked, flat)
		rank := map[string]int{}
		i := 0
		for id, e := range l.TaskIndexed() {
			want, ok := rank[flat[i].Task]
			if !ok {
				want = len(rank)
				rank[flat[i].Task] = want
			}
			if id != want || e != flat[i] {
				t.Fatalf("TaskIndexed event %d = %d %+v, want %d %+v", i, id, e, want, flat[i])
			}
			i++
		}
		if i != len(flat) {
			t.Fatalf("TaskIndexed yielded %d events, want %d", i, len(flat))
		}
		if got := l.Events(); len(flat) == 0 && got != nil {
			t.Errorf("Events of an empty log = %v, want nil", got)
		} else {
			sameEvents(t, "Events", got, flat)
		}
		keep := func(e Event) bool { return e.Kind%3 == 0 || e.Arg < 0 }
		from, to := vtime.Time(math.MinInt64), vtime.Time(math.MaxInt64)
		if len(flat) > 0 {
			from, to = flat[0].At, flat[len(flat)/2].At
		}
		var kept, win []Event
		releases := 0
		for _, e := range flat {
			if keep(e) {
				kept = append(kept, e)
			}
			if !e.At.Before(from) && e.At.Before(to) {
				win = append(win, e)
			}
			if e.Kind == JobRelease && e.Task != "" && e.Job >= 0 {
				releases++
			}
		}
		sameEvents(t, "Filter", l.Filter(keep), kept)
		sameEvents(t, "Window", l.Window(from, to), win)
		if l.Releases() != releases {
			t.Errorf("Releases = %d, want %d", l.Releases(), releases)
		}
		names := []string{"", "absent"}
		if len(flat) > 0 {
			names = append(names, flat[0].Task, flat[len(flat)-1].Task)
		}
		for _, name := range names {
			var of []Event
			for _, e := range flat {
				if e.Task == name {
					of = append(of, e)
				}
			}
			sameEvents(t, fmt.Sprintf("TaskEvents(%q)", name), l.TaskEvents(name), of)
		}
		var tasks []string
		for name := range rank {
			if name != "" {
				tasks = append(tasks, name)
			}
		}
		sort.Strings(tasks)
		if got := l.Tasks(); !slices.Equal(got, tasks) {
			t.Errorf("Tasks = %v, want %v", got, tasks)
		}
		if l.EncodeString() != flatEncoding(t, flat) {
			t.Error("Encode differs from the flat encoding")
		}
	})
}
