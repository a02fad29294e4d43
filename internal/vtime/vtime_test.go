package vtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if Millis(29) != 29_000_000 {
		t.Errorf("Millis(29) = %d ns", Millis(29))
	}
	if Micros(5) != 5_000 {
		t.Errorf("Micros(5) = %d ns", Micros(5))
	}
	if Nanos(7) != 7 {
		t.Errorf("Nanos(7) = %d", Nanos(7))
	}
	if AtMillis(1000).Milliseconds() != 1000 {
		t.Errorf("AtMillis(1000).Milliseconds() = %d", AtMillis(1000).Milliseconds())
	}
	if Millis(3).Nanoseconds() != 3_000_000 {
		t.Error("Duration.Nanoseconds wrong")
	}
	if AtMillis(3).Nanoseconds() != 3_000_000 {
		t.Error("Time.Nanoseconds wrong")
	}
}

func TestArithmetic(t *testing.T) {
	a := AtMillis(1000)
	b := a.Add(Millis(29))
	if b != AtMillis(1029) {
		t.Errorf("Add: %v", b)
	}
	if b.Sub(a) != Millis(29) {
		t.Errorf("Sub: %v", b.Sub(a))
	}
	if !a.Before(b) || !b.After(a) || a.After(b) || b.Before(a) {
		t.Error("Before/After inconsistent")
	}
}

func TestRounding(t *testing.T) {
	step := Millis(10)
	cases := []struct {
		in                 Duration
		ceil, floor, round Duration
	}{
		{Millis(29), Millis(30), Millis(20), Millis(30)},
		{Millis(58), Millis(60), Millis(50), Millis(60)},
		{Millis(87), Millis(90), Millis(80), Millis(90)},
		{Millis(30), Millis(30), Millis(30), Millis(30)},
		{Millis(24), Millis(30), Millis(20), Millis(20)},
		{Millis(25), Millis(30), Millis(20), Millis(30)},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := c.in.Ceil(step); got != c.ceil {
			t.Errorf("Ceil(%v) = %v, want %v", c.in, got, c.ceil)
		}
		if got := c.in.Floor(step); got != c.floor {
			t.Errorf("Floor(%v) = %v, want %v", c.in, got, c.floor)
		}
		if got := c.in.Round(step); got != c.round {
			t.Errorf("Round(%v) = %v, want %v", c.in, got, c.round)
		}
	}
	// Degenerate step: identity.
	if Millis(7).Ceil(0) != Millis(7) || Millis(7).Floor(0) != Millis(7) || Millis(7).Round(0) != Millis(7) {
		t.Error("zero step must be identity")
	}
}

// TestPaperDetectorRounding encodes the paper's §6.2 observation: with
// jRate's 10 ms timer, detector offsets 29/58/87 ms are released with
// delays of 1, 2 and 3 ms respectively (i.e. at 30, 60, 90).
func TestPaperDetectorRounding(t *testing.T) {
	wcrts := []Duration{Millis(29), Millis(58), Millis(87)}
	delays := []Duration{Millis(1), Millis(2), Millis(3)}
	for i, w := range wcrts {
		got := w.Round(Millis(10)) - w
		if got != delays[i] {
			t.Errorf("detector %d delay = %v, want %v", i+1, got, delays[i])
		}
	}
}

func TestQuickCeilFloorInvariants(t *testing.T) {
	f := func(raw int64, stepMs uint8) bool {
		d := Duration(raw % 1_000_000_000)
		if d < 0 {
			d = -d
		}
		step := Millis(int64(stepMs%50) + 1)
		c, fl, r := d.Ceil(step), d.Floor(step), d.Round(step)
		if c%step != 0 || fl%step != 0 || r%step != 0 {
			return false
		}
		if c < d || fl > d {
			return false
		}
		if c-d >= step || d-fl >= step {
			return false
		}
		return r == c || r == fl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	cases := map[Duration]string{
		Millis(29):              "29ms",
		Millis(1) + Micros(500): "1.5ms",
		0:                       "0ms",
		Nanos(1):                "0.000001ms",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
	if AtMillis(1020).String() != "1020ms" {
		t.Errorf("Time.String() = %q", AtMillis(1020).String())
	}
	if Forever.String() != "∞" {
		t.Errorf("Forever.String() = %q", Forever.String())
	}
}

func TestParseDuration(t *testing.T) {
	good := map[string]Duration{
		"29":      Millis(29),
		"29ms":    Millis(29),
		"1.5ms":   Millis(1) + Micros(500),
		"250us":   Micros(250),
		"100ns":   Nanos(100),
		"2s":      2 * Second,
		" 10 ms ": Millis(10),
		"0.25s":   250 * Millisecond,
	}
	for in, want := range good {
		got, err := ParseDuration(in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseDuration(%q) = %v, want %v", in, got, want)
		}
	}
	bad := []string{"", "ms", "x2ms", "1.2.3ms", "1.0000001ms"}
	for _, in := range bad {
		if _, err := ParseDuration(in); err == nil {
			t.Errorf("ParseDuration(%q): expected error", in)
		}
	}
}

func TestParseFormatsRoundTrip(t *testing.T) {
	f := func(msVal uint16) bool {
		d := Millis(int64(msVal))
		back, err := ParseDuration(d.String())
		return err == nil && back == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeStringRoundTrip: a negative duration keeps its sign in
// String even when it is shorter than a millisecond, so ParseDuration
// reads back exactly what was written (scenario encodings and digests
// are built from String).
func TestNegativeStringRoundTrip(t *testing.T) {
	cases := map[Duration]string{
		Nanos(-1):                  "-0.000001ms",
		-Micros(500):               "-0.5ms",
		-(Millis(1) + Micros(500)): "-1.5ms",
		Millis(-3):                 "-3ms",
		math.MinInt64:              "-9223372036854.775808ms",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
		twins := []Duration{d, -d}
		if d == math.MinInt64 {
			twins = twins[:1] // no positive twin
		}
		for _, d := range twins {
			back, err := ParseDuration(d.String())
			if err != nil || back != d {
				t.Errorf("ParseDuration(%q) = %d, %v; want %d", d.String(), back, err, d)
			}
		}
	}
}

func TestMinMax(t *testing.T) {
	if Max(AtMillis(1), AtMillis(2)) != AtMillis(2) || Min(AtMillis(1), AtMillis(2)) != AtMillis(1) {
		t.Error("Time Min/Max wrong")
	}
	if MaxDur(Millis(1), Millis(2)) != Millis(2) || MinDur(Millis(1), Millis(2)) != Millis(1) {
		t.Error("Duration Min/Max wrong")
	}
}
