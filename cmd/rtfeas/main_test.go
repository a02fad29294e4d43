package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// golden is the full rtfeas output for the paper's Table 2 system:
// Eq. 1 load, the Figure 2 exact WCRTs (29/58/87), the 11 ms
// equitable allowance and the 33 ms per-task maximum overrun.
const golden = `U = 0.2803
task        P          T          D          C         WCRT ok
tau1       20      200ms       70ms       29ms         29ms yes
tau2       18      250ms      120ms       29ms         58ms yes
tau3       16     1500ms      120ms       29ms         87ms yes
verdict: feasible

equitable allowance A = 11ms per task
task               WCRT    WCRT+allowances   maxOverrun
tau1               29ms               40ms         33ms
tau2               58ms               80ms         33ms
tau3               87ms              120ms         33ms
`

func TestTable2Golden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	tasks := filepath.Join("..", "..", "testdata", "table2.tasks")
	if code := run([]string{"-tasks", tasks}, &stdout, &stderr); code != 0 {
		t.Fatalf("rtfeas exited %d: %s", code, stderr.String())
	}
	if stdout.String() != golden {
		t.Errorf("output differs from golden:\n--- got ---\n%s--- want ---\n%s", stdout.String(), golden)
	}
}

func TestMissingTasksFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("missing -tasks exited %d, want 2", code)
	}
}

func TestUnreadableFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-tasks", "no/such/file.tasks"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unreadable file exited %d, want 1", code)
	}
}

// longDeadlineGolden is the rtfeas output for a feasible system whose
// b may overrun by far more than 2^50 ns: until U reaches exactly 1.
const longDeadlineGolden = `U = 0.1000
task        P          T          D          C         WCRT ok
a           2       20ms       20ms        2ms          2ms yes
b           1 3000000000ms 3000000000ms        1ms          3ms yes
verdict: feasible

equitable allowance A = 17ms per task
task               WCRT    WCRT+allowances   maxOverrun
a                   2ms               19ms         17ms
b                   3ms              360ms 2699999999ms
`

func TestLongDeadlineGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	tasks := filepath.Join("..", "..", "testdata", "long-deadline.tasks")
	if code := run([]string{"-tasks", tasks}, &stdout, &stderr); code != 0 {
		t.Fatalf("rtfeas exited %d: %s", code, stderr.String())
	}
	if stdout.String() != longDeadlineGolden {
		t.Errorf("output differs from golden:\n--- got ---\n%s--- want ---\n%s", stdout.String(), longDeadlineGolden)
	}
}
