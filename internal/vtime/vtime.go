// Package vtime provides the virtual time base used throughout the
// reproduction. All simulation and analysis code measures time as an
// integer number of nanoseconds on a virtual clock, mirroring the
// paper's use of the RDTSC cycle counter for nanosecond-precision
// timestamps while remaining fully deterministic (no wall-clock reads).
package vtime

import (
	"fmt"
	"strconv"
	"strings"
)

// Time is an absolute instant on the virtual clock, in nanoseconds
// since the start of the system (time zero is the simulation origin,
// analogous to machine start-up for RDTSC).
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a sentinel instant later than any reachable simulation
// time. It is used for "no deadline" and unreachable timer expirations.
const Forever Time = 1<<63 - 1

// Millis returns a Duration of ms milliseconds.
func Millis(ms int64) Duration { return Duration(ms) * Millisecond }

// Micros returns a Duration of us microseconds.
func Micros(us int64) Duration { return Duration(us) * Microsecond }

// Nanos returns a Duration of ns nanoseconds.
func Nanos(ns int64) Duration { return Duration(ns) }

// AtMillis returns the absolute instant ms milliseconds after time zero.
func AtMillis(ms int64) Time { return Time(Millis(ms)) }

// Add returns t shifted forward by d (backward if d is negative).
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Milliseconds returns the instant expressed in whole milliseconds,
// truncating toward zero.
func (t Time) Milliseconds() int64 { return int64(t) / int64(Millisecond) }

// Nanoseconds returns the raw nanosecond count.
func (t Time) Nanoseconds() int64 { return int64(t) }

// Milliseconds returns the duration in whole milliseconds, truncating
// toward zero.
func (d Duration) Milliseconds() int64 { return int64(d) / int64(Millisecond) }

// Nanoseconds returns the raw nanosecond count.
func (d Duration) Nanoseconds() int64 { return int64(d) }

// Ceil returns d rounded up to the next multiple of step. Ceil of a
// non-positive step returns d unchanged.
func (d Duration) Ceil(step Duration) Duration {
	if step <= 0 {
		return d
	}
	r := d % step
	if r == 0 {
		return d
	}
	if d < 0 {
		return d - r
	}
	return d + step - r
}

// Floor returns d rounded down to the previous multiple of step.
func (d Duration) Floor(step Duration) Duration {
	if step <= 0 {
		return d
	}
	r := d % step
	if r == 0 {
		return d
	}
	if d < 0 {
		return d - step - r
	}
	return d - r
}

// Round returns d rounded to the nearest multiple of step, with ties
// rounding up. This models jRate's PeriodicTimer release quantization
// (paper §6.2: releases are only accurate at multiples of 10 ms).
func (d Duration) Round(step Duration) Duration {
	if step <= 0 {
		return d
	}
	r := d % step
	if r == 0 {
		return d
	}
	if 2*r >= step {
		return d + step - r
	}
	return d - r
}

// String renders the instant as milliseconds with fractional part when
// needed, e.g. "1029ms" or "1029.5ms". The paper's charts are labelled
// in milliseconds.
func (t Time) String() string {
	if t == Forever {
		return "∞"
	}
	return Duration(t).String()
}

// String renders the duration in milliseconds, e.g. "29ms", "1.5ms",
// "-0.5ms"; ParseDuration reads it back exactly.
func (d Duration) String() string {
	ms := int64(d) / int64(Millisecond)
	frac := int64(d) % int64(Millisecond)
	if frac == 0 {
		return strconv.FormatInt(ms, 10) + "ms"
	}
	sign := ""
	if d < 0 {
		// Negate the parts, not d: -d overflows at math.MinInt64.
		sign, ms, frac = "-", -ms, -frac
	}
	s := strconv.FormatInt(frac, 10)
	s = strings.Repeat("0", 6-len(s)) + s
	s = strings.TrimRight(s, "0")
	return fmt.Sprintf("%s%d.%sms", sign, ms, s)
}

// ParseDuration parses a duration written with one of the suffixes
// "ns", "us", "ms" or "s" (e.g. "29ms", "250us", "1.5ms"). A bare
// number is interpreted as milliseconds, matching the paper's task
// tables.
func ParseDuration(s string) (Duration, error) {
	orig := s
	s = strings.TrimSpace(s)
	unit := Millisecond
	switch {
	case strings.HasSuffix(s, "ns"):
		unit, s = Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "us"):
		unit, s = Microsecond, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ms"):
		unit, s = Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		unit, s = Second, strings.TrimSuffix(s, "s")
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("vtime: empty duration %q", orig)
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		whole, err := parseInt(s[:i], orig)
		if err != nil {
			return 0, err
		}
		fracStr := s[i+1:]
		if fracStr == "" {
			return Duration(whole) * unit, nil
		}
		frac, err := parseInt(fracStr, orig)
		if err != nil {
			return 0, err
		}
		scale := int64(unit)
		for range fracStr {
			scale /= 10
		}
		if scale == 0 {
			return 0, fmt.Errorf("vtime: too many fractional digits in %q", orig)
		}
		d := Duration(whole)*unit + Duration(frac*scale)
		if whole < 0 || strings.HasPrefix(s, "-") {
			d = Duration(whole)*unit - Duration(frac*scale)
		}
		return d, nil
	}
	whole, err := parseInt(s, orig)
	if err != nil {
		return 0, err
	}
	return Duration(whole) * unit, nil
}

func parseInt(s, orig string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("vtime: bad duration %q", orig)
	}
	return v, nil
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxDur returns the longer of a and b.
func MaxDur(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MinDur returns the shorter of a and b.
func MinDur(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}
