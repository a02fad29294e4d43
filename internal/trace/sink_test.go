package trace

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/vtime"
)

func sinkEvents() []Event {
	return []Event{
		{At: 0, Kind: JobRelease, Task: "tau1", Job: 0},
		{At: vtime.AtMillis(2), Kind: JobBegin, Task: "tau1", Job: 0},
		{At: vtime.AtMillis(5), Kind: AllowanceGrant, Task: "tau1", Job: 0, Arg: 11},
		{At: vtime.AtMillis(9), Kind: JobEnd, Task: "tau1", Job: 0},
		{At: vtime.AtMillis(9), Kind: TaskAdded, Task: "", Job: -1},
	}
}

// TestWriterSinkMatchesLogEncode: streaming the events through a
// WriterSink must produce byte-identical output to encoding a
// retained log of the same events.
func TestWriterSinkMatchesLogEncode(t *testing.T) {
	l := NewLog()
	var streamed strings.Builder
	ws := NewWriterSink(&streamed)
	for _, e := range sinkEvents() {
		l.Append(e)
		ws.Append(e)
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != l.EncodeString() {
		t.Errorf("streamed bytes differ from Log.Encode:\n--- stream ---\n%s--- log ---\n%s",
			streamed.String(), l.EncodeString())
	}
	// And the streamed form must round-trip through Decode.
	back, err := DecodeString(streamed.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(sinkEvents()) {
		t.Errorf("round trip lost events: %d of %d", back.Len(), len(sinkEvents()))
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriterSinkLatchesError: the first write failure surfaces from
// Flush; later appends are dropped rather than panicking.
func TestWriterSinkLatchesError(t *testing.T) {
	ws := NewWriterSink(&failWriter{n: 4})
	// Overflow the 4-byte capacity through the bufio layer.
	for i := 0; i < 10000; i++ {
		ws.Append(Event{At: vtime.AtMillis(int64(i)), Kind: JobRelease, Task: "t", Job: int64(i)})
	}
	if err := ws.Flush(); err == nil {
		t.Fatal("Flush must report the write error")
	}
}

// TestTee fans out to every sink, skips nils, and collapses to the
// single non-nil sink when there is only one.
func TestTee(t *testing.T) {
	a, b := NewLog(), NewLog()
	tee := Tee(a, nil, b)
	ev := Event{At: 1, Kind: JobRelease, Task: "x", Job: 0}
	tee.Append(ev)
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("tee delivered %d/%d events, want 1/1", a.Len(), b.Len())
	}
	if got := Tee(nil, a, nil); got != Sink(a) {
		t.Error("Tee with one live sink must return it directly")
	}
}
