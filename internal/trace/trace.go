// Package trace records the key dates in the system life, exactly the
// data the paper's measurement tools collect (§5): the beginning and
// end of each job, detector releases, plus the scheduling detail the
// charts draw (starts, preemptions, resumptions, stops, deadline
// misses). Events carry nanosecond virtual timestamps. Like the
// paper's StringBuffer discipline, the recorder appends to an
// in-memory Log during the run and is encoded to a log file only
// afterwards, so recording cannot perturb the system. The Log grows in
// chunks that double up to a fixed size and never moves an event
// already recorded, so a short run pays for a short log and a long run
// pays no copying for its length.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"sort"
	"strconv"
	"strings"

	"repro/internal/vtime"
)

// Kind enumerates trace event kinds.
type Kind uint8

// Event kinds. JobBegin/JobEnd correspond to the paper's
// computeBeforePeriodic()/computeAfterPeriodic() instants;
// DetectorRelease is the release of a detector; the rest are
// scheduler-level detail.
const (
	// JobRelease: a job became eligible (period boundary).
	JobRelease Kind = iota
	// JobBegin: the job's first dispatch (computeBeforePeriodic).
	JobBegin
	// JobPreempt: the running job was preempted.
	JobPreempt
	// JobResume: a preempted job was dispatched again.
	JobResume
	// JobEnd: the job completed its work (computeAfterPeriodic).
	JobEnd
	// DeadlineMiss: the job's absolute deadline passed unfinished.
	DeadlineMiss
	// DetectorRelease: a detector timer fired and checked the job.
	DetectorRelease
	// FaultDetected: the detector found the job unfinished.
	FaultDetected
	// StopRequest: a treatment asked the task to stop.
	StopRequest
	// JobStopped: the job observed the stop flag and terminated
	// without completing its work.
	JobStopped
	// AllowanceGrant: the system-allowance treatment granted extra
	// time to a faulty task (Arg = grant in ns).
	AllowanceGrant
	// TaskAdded: dynamic admission added a task at runtime.
	TaskAdded
	// TaskRemoved: dynamic admission removed a task at runtime.
	TaskRemoved
	// JobMigrate: a preempted job was dispatched again on a
	// different core than it last ran on (Arg = new core). Global
	// multiprocessor dispatch only; never emitted at cpus=1 or under
	// partitioned placement.
	JobMigrate
)

var kindNames = [...]string{
	JobRelease:      "release",
	JobBegin:        "begin",
	JobPreempt:      "preempt",
	JobResume:       "resume",
	JobEnd:          "end",
	DeadlineMiss:    "miss",
	DetectorRelease: "detector",
	FaultDetected:   "fault",
	StopRequest:     "stopreq",
	JobStopped:      "stopped",
	AllowanceGrant:  "grant",
	TaskAdded:       "addtask",
	TaskRemoved:     "rmtask",
	JobMigrate:      "migrate",
}

// String names the kind as used in the log format.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// parseKind inverts String.
func parseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one timestamped occurrence.
type Event struct {
	// At is the virtual instant of the event.
	At vtime.Time
	// Kind classifies the event.
	Kind Kind
	// Task names the task concerned ("" for system-wide events).
	Task string
	// Job is the 0-based job index within the task (-1 if n/a).
	Job int64
	// Arg carries event-specific data: for AllowanceGrant the grant
	// duration in ns, for StopRequest the scheduled stop instant,
	// and for JobBegin/JobResume/JobPreempt/JobMigrate the core the
	// job (is/was) running on. Core 0 encodes as an absent arg, so
	// single-processor traces are byte-identical to the pre-M-core
	// format.
	Arg int64
}

// Sink consumes trace events as they are recorded. The in-memory Log
// is the retaining sink; WriterSink streams the text encoding without
// retention; metrics.Accumulator summarizes without retention. Sinks
// are driven from the single-threaded engine loop and need not be
// safe for concurrent use.
type Sink interface {
	Append(Event)
}

// Tee fans every event out to each sink in order. Nil entries are
// skipped, so callers can pass optional sinks unconditionally.
func Tee(sinks ...Sink) Sink {
	var active multiSink
	for _, s := range sinks {
		if s != nil {
			active = append(active, s)
		}
	}
	if len(active) == 1 {
		return active[0]
	}
	return active
}

type multiSink []Sink

func (m multiSink) Append(e Event) {
	for _, s := range m {
		s.Append(e)
	}
}

// WriterSink encodes events to w as they arrive, in exactly the
// format Log.Encode produces, so a spilled trace is byte-identical to
// a retained log of the same events. Writes are buffered; call Flush
// once the run is over. The first write error is latched and returned
// by Flush — later Appends are dropped.
type WriterSink struct {
	bw  *bufio.Writer
	err error
}

// NewWriterSink returns a sink streaming the text encoding to w.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{bw: bufio.NewWriter(w)}
}

// Append encodes one event.
func (s *WriterSink) Append(e Event) {
	if s.err == nil {
		s.err = writeEvent(s.bw, e)
	}
}

// Flush drains the buffer and reports the first error seen.
func (s *WriterSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// A Log's first chunk holds firstChunk events (12 KiB); each later
// chunk holds twice its predecessor's events, up to chunkSize (4 096
// events, 192 KiB).
const (
	firstChunk = 256
	chunkSize  = 4096
)

// Log is an append-only sequence of events ordered by record time. It
// implements Sink. The events live in chunks: an append that finds the
// last chunk full adds the next, so recording never copies or moves an
// event already recorded, and appends within a chunk do not allocate,
// as the paper's preallocated StringBuffer fields do not (§5).
type Log struct {
	full [][]Event // filled chunks, in record order
	n    int       // events in full
	tail []Event   // the chunk being filled
}

// NewLog returns an empty Log; its first Append allocates the first
// chunk.
func NewLog() *Log { return &Log{} }

// Append records an event.
func (l *Log) Append(e Event) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, e)
}

// grow retires the full tail chunk and starts the next one.
func (l *Log) grow() {
	n := firstChunk
	if c := cap(l.tail); c > 0 {
		if l.full == nil {
			// Room for eight chunks, so the list itself grows
			// rarely next to the chunks it holds.
			l.full = make([][]Event, 0, 8)
		}
		l.full = append(l.full, l.tail)
		l.n += len(l.tail)
		n = min(2*c, chunkSize)
	}
	l.tail = make([]Event, 0, n)
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return l.n + len(l.tail) }

// All iterates over the recorded events in record order without
// allocating or flattening the log. It only reads the log, so
// concurrent walks of a log no one appends to are safe.
func (l *Log) All() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for _, c := range l.full {
			for _, e := range c {
				if !yield(e) {
					return
				}
			}
		}
		for _, e := range l.tail {
			if !yield(e) {
				return
			}
		}
	}
}

// Events returns the recorded events in record order as one slice,
// which callers must not mutate. A log of one chunk returns that
// chunk; a longer log returns a fresh copy on every call, so
// whole-log walks should use All, which never copies.
func (l *Log) Events() []Event {
	if l.full == nil {
		return l.tail
	}
	flat := make([]Event, 0, l.Len())
	for _, c := range l.full {
		flat = append(flat, c...)
	}
	return append(flat, l.tail...)
}

// Filter returns the events satisfying keep, preserving order.
func (l *Log) Filter(keep func(Event) bool) []Event {
	var out []Event
	for e := range l.All() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// TaskEvents returns the events of one task, preserving order.
func (l *Log) TaskEvents(task string) []Event {
	return l.Filter(func(e Event) bool { return e.Task == task })
}

// Window returns the events with from ≤ At < to, preserving order.
func (l *Log) Window(from, to vtime.Time) []Event {
	return l.Filter(func(e Event) bool { return !e.At.Before(from) && e.At.Before(to) })
}

// Tasks returns the sorted set of task names appearing in the log.
func (l *Log) Tasks() []string {
	seen := map[string]bool{}
	for e := range l.All() {
		if e.Task != "" {
			seen[e.Task] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Encode writes the log in the text format parsed by Decode:
// one event per line, "t=<ns> <kind> <task> <job> [arg=<int>]".
func (l *Log) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for e := range l.All() {
		if err := writeEvent(bw, e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeEvent emits one line of the text format — the single encoder
// behind Log.Encode and WriterSink, so retained and streamed traces
// are byte-identical.
func writeEvent(bw *bufio.Writer, e Event) error {
	task := e.Task
	if task == "" {
		task = "-"
	}
	if _, err := fmt.Fprintf(bw, "t=%d %s %s %d", int64(e.At), e.Kind, task, e.Job); err != nil {
		return err
	}
	if e.Arg != 0 {
		if _, err := fmt.Fprintf(bw, " arg=%d", e.Arg); err != nil {
			return err
		}
	}
	return bw.WriteByte('\n')
}

// EncodeString returns the text encoding of the log.
func (l *Log) EncodeString() string {
	var b strings.Builder
	// Strings.Builder writes cannot fail.
	_ = l.Encode(&b)
	return b.String()
}

// Decode parses a log in the Encode format.
func Decode(r io.Reader) (*Log, error) {
	l := NewLog()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace: line %d: want at least 4 fields, got %q", lineno, line)
		}
		tsStr, ok := strings.CutPrefix(fields[0], "t=")
		if !ok {
			return nil, fmt.Errorf("trace: line %d: missing t= timestamp", lineno)
		}
		ts, err := strconv.ParseInt(tsStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad timestamp: %v", lineno, err)
		}
		kind, err := parseKind(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineno, err)
		}
		task := fields[2]
		if task == "-" {
			task = ""
		}
		job, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad job index: %v", lineno, err)
		}
		e := Event{At: vtime.Time(ts), Kind: kind, Task: task, Job: job}
		for _, f := range fields[4:] {
			if v, ok := strings.CutPrefix(f, "arg="); ok {
				e.Arg, err = strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: bad arg: %v", lineno, err)
				}
			} else {
				return nil, fmt.Errorf("trace: line %d: unknown field %q", lineno, f)
			}
		}
		l.Append(e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading log: %v", err)
	}
	return l, nil
}

// DecodeString parses an in-memory log.
func DecodeString(s string) (*Log, error) { return Decode(strings.NewReader(s)) }
