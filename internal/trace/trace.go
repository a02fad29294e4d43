// Package trace records the key dates in the system life, exactly the
// data the paper's measurement tools collect (§5): the beginning and
// end of each job, detector releases, plus the scheduling detail the
// charts draw (starts, preemptions, resumptions, stops, deadline
// misses). Events carry nanosecond virtual timestamps. Like the
// paper's StringBuffer discipline, the recorder appends to an
// in-memory Log during the run and is encoded to a log file only
// afterwards, so recording cannot perturb the system. The Log packs
// each event into a varint record of about 7 bytes, naming its task by
// an index into a per-log table of names, and grows in byte chunks
// that double up to a fixed size and never move a recorded byte, so a
// short run pays for a short log, a long run pays no copying for its
// length, and the garbage collector has no pointer to scan in either.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"math/bits"
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

// A Log's first chunk holds firstChunk bytes (2 KiB); each later chunk
// holds twice its predecessor's bytes, up to chunkSize (64 KiB). A
// record never spans two chunks; maxRecord bounds one: a kind byte and
// four varints.
const (
	firstChunk = 2 << 10
	chunkSize  = 64 << 10
	maxRecord  = 1 + 4*binary.MaxVarintLen64
)

// Log is an append-only sequence of events ordered by record time. It
// implements Sink. Each event is one packed record: its kind byte, the
// uvarint index of its task's name in the log's task table, then
// zigzag varints of Job, Arg and At minus the previous record's At
// (signed, since a decoded log need not be in time order). An engine
// event takes about 7 bytes where an Event takes 48, and the chunks
// hold no pointers for the garbage collector to scan. Records live in
// byte chunks: an append that finds no room in the last chunk adds the
// next, so recording never copies or moves a recorded byte, and appends
// within a chunk do not allocate, as the paper's preallocated
// StringBuffer fields do not (§5). Every accessor decodes as it walks.
type Log struct {
	full [][]byte   // filled chunks, in record order
	tail []byte     // the chunk being filled
	n    int        // events recorded
	at   vtime.Time // the last record's At

	names []string       // the task table, in order of first appearance
	ids   map[string]int // index of each name in names
	// recent caches names' indices in a direct-mapped table, so a run
	// alternating among a few tasks finds each name with one
	// comparison instead of a hash.
	recent [recentSlots]nameRef

	releases int // JobRelease events of a named task with Job ≥ 0
}

// recentSlots sizes Log.recent; slotOf mixes a name's last byte with
// its length, which keeps names such as t1 … t19 in distinct slots.
const recentSlots = 32

type nameRef struct {
	name string
	id   int // table index plus one; 0 marks an empty slot
}

func slotOf(name string) int {
	if name == "" {
		return 0
	}
	return int(name[len(name)-1]^byte(len(name)<<4)) % recentSlots
}

// NewLog returns an empty Log; its first Append allocates the first
// chunk.
func NewLog() *Log { return &Log{} }

// Append records an event.
func (l *Log) Append(e Event) {
	ref := &l.recent[slotOf(e.Task)]
	if ref.id == 0 || ref.name != e.Task {
		ref.name, ref.id = e.Task, l.intern(e.Task)+1
	}
	id := uint64(ref.id - 1)
	// The At step wraps around at ±2^63, as decoding's sum does.
	job, arg, step := zigzag(e.Job), zigzag(e.Arg), zigzag(int64(e.At-l.at))
	t := l.tail
	if room := cap(t) - len(t); room < maxRecord &&
		room < 1+uvarintLen(id)+uvarintLen(job)+uvarintLen(arg)+uvarintLen(step) {
		t = l.grow()
	}
	t = append(t, byte(e.Kind))
	t = binary.AppendUvarint(t, id)
	t = binary.AppendUvarint(t, job)
	t = binary.AppendUvarint(t, arg)
	l.tail = binary.AppendUvarint(t, step)
	l.at = e.At
	l.n++
	if e.Kind == JobRelease && e.Task != "" && e.Job >= 0 {
		l.releases++
	}
}

// intern returns the index of a task name, adding it to the table on
// first sight.
func (l *Log) intern(name string) int {
	id, ok := l.ids[name]
	if !ok {
		if l.ids == nil {
			l.ids = make(map[string]int)
		}
		id = len(l.names)
		l.names = append(l.names, name)
		l.ids[name] = id
	}
	return id
}

// grow retires the tail chunk and returns the next one, empty.
func (l *Log) grow() []byte {
	n := firstChunk
	if c := cap(l.tail); c > 0 {
		if l.full == nil {
			// Room for eight chunks, so the list itself grows
			// rarely next to the chunks it holds.
			l.full = make([][]byte, 0, 8)
		}
		l.full = append(l.full, l.tail)
		n = min(2*c, chunkSize)
	}
	l.tail = make([]byte, 0, n)
	return l.tail
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return l.n }

// Releases returns the number of JobRelease events of a named task
// with a job index (Job ≥ 0), counted as they were recorded, so an
// analysis can size its job list without a pass over the log.
func (l *Log) Releases() int { return l.releases }

// All iterates over the recorded events in record order, decoding as
// it walks, without allocating. It only reads the log, so concurrent
// walks of a log no one appends to are safe.
func (l *Log) All() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		l.walk(func(_ int, e Event) bool { return yield(e) })
	}
}

// TaskIndexed iterates like All, yielding with each event the index
// of its task in the log's task table. Indices count the distinct
// names, the empty one included, from 0 in order of first appearance,
// so a walk can keep per-task state in a slice instead of hashing
// every event's name.
func (l *Log) TaskIndexed() iter.Seq2[int, Event] {
	return func(yield func(int, Event) bool) { l.walk(yield) }
}

// walk decodes every record in order and yields it with its task's
// index, until yield returns false.
func (l *Log) walk(yield func(int, Event) bool) {
	var at vtime.Time
	for i := 0; i <= len(l.full); i++ {
		c := l.tail
		if i < len(l.full) {
			c = l.full[i]
		}
		for p := 0; p < len(c); {
			kind := Kind(c[p])
			var id, job, arg, step uint64
			id, p = uvarint(c, p+1)
			job, p = uvarint(c, p)
			arg, p = uvarint(c, p)
			step, p = uvarint(c, p)
			at += vtime.Time(unzigzag(step))
			if !yield(int(id), Event{At: at, Kind: kind, Task: l.names[id], Job: unzigzag(job), Arg: unzigzag(arg)}) {
				return
			}
		}
	}
}

// uvarint decodes the unsigned varint at b[p], returning it and the
// position after it. The log wrote b, so b holds a whole varint.
func uvarint(b []byte, p int) (uint64, int) {
	x := uint64(b[p])
	if x < 0x80 {
		return x, p + 1
	}
	x &= 0x7f
	for s := uint(7); ; s += 7 {
		p++
		c := b[p]
		if c < 0x80 {
			return x | uint64(c)<<s, p + 1
		}
		x |= uint64(c&0x7f) << s
	}
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return 1 + (bits.Len64(x|1)-1)/7 }

// zigzag maps signed to unsigned so that small magnitudes encode
// short, as binary.AppendVarint does; unzigzag inverts it.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Events returns the recorded events in record order, decoded into a
// fresh slice on every call (nil for an empty log), so whole-log walks
// should use All, which allocates nothing.
func (l *Log) Events() []Event {
	if l.n == 0 {
		return nil
	}
	out := make([]Event, 0, l.n)
	for e := range l.All() {
		out = append(out, e)
	}
	return out
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

// TaskEvents returns the events of one task, preserving order. It
// compares table indices, not names.
func (l *Log) TaskEvents(task string) []Event {
	want, ok := l.ids[task]
	if !ok {
		return nil
	}
	var out []Event
	for id, e := range l.walk {
		if id == want {
			out = append(out, e)
		}
	}
	return out
}

// Window returns the events with from ≤ At < to, preserving order.
func (l *Log) Window(from, to vtime.Time) []Event {
	return l.Filter(func(e Event) bool { return !e.At.Before(from) && e.At.Before(to) })
}

// Tasks returns the sorted set of task names appearing in the log:
// its task table without the empty name.
func (l *Log) Tasks() []string {
	out := make([]string, 0, len(l.names))
	for _, t := range l.names {
		if t != "" {
			out = append(out, t)
		}
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
