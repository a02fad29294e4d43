// Package chart renders trace logs as time-series charts, the second
// measurement tool of the paper's Section 5. The ASCII renderer uses
// the paper's glyph conventions — ↑ marks periods (releases), ↓ marks
// deadlines, ◆ marks detector releases, > marks worst-case response
// times — with execution drawn as filled blocks; an SVG renderer
// produces the same chart for documents.
package chart

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// Options control rendering.
type Options struct {
	// From and To bound the charted window.
	From, To vtime.Time
	// CellMS is the ASCII time resolution in milliseconds per
	// character cell (default 2).
	CellMS int64
	// Tasks orders the lanes (default: log task order, sorted).
	Tasks []string
	// WCRTMarks places the paper's > markers: per task, the offset
	// after each release at which the worst-case response time
	// falls. Optional.
	WCRTMarks map[string]vtime.Duration
}

// Glyphs (ASCII-safe with Unicode accents matching the paper).
const (
	glyphExec     = '█'
	glyphRelease  = '↑'
	glyphDeadline = '↓'
	glyphDetector = '◆'
	glyphWCRT     = '>'
	glyphStop     = 'X'
	glyphMiss     = '!'
	glyphIdle     = '·'
)

// burst is a half-open execution interval of one task.
type burst struct {
	from, to vtime.Time
}

// laneData is everything drawn for one task.
type laneData struct {
	task      string
	bursts    []burst
	releases  []vtime.Time
	deadlines []vtime.Time // deadline miss instants
	detectors []vtime.Time
	stops     []vtime.Time
	ends      []vtime.Time
}

// extract reconstructs per-task lanes from the log. Deadline glyphs
// require deadline durations, which the log does not carry; the
// caller may supply them through opts.WCRTMarks-style map via
// Deadlines (see Render signature below) — instead we mark recorded
// DeadlineMiss events with '!' and draw '↓' from the optional
// deadline map.
func extract(l *trace.Log, tasks []string, from, to vtime.Time) map[string]*laneData {
	lanes := make(map[string]*laneData, len(tasks))
	for _, t := range tasks {
		lanes[t] = &laneData{task: t}
	}
	open := map[string]vtime.Time{} // task → burst start
	for e := range l.All() {
		ln, ok := lanes[e.Task]
		if !ok {
			continue
		}
		switch e.Kind {
		case trace.JobBegin, trace.JobResume, trace.JobMigrate:
			open[e.Task] = e.At
		case trace.JobPreempt, trace.JobEnd, trace.JobStopped:
			if s, running := open[e.Task]; running {
				if e.At > s {
					ln.bursts = append(ln.bursts, burst{s, e.At})
				}
				delete(open, e.Task)
			}
			if e.Kind == trace.JobStopped {
				ln.stops = append(ln.stops, e.At)
			}
			if e.Kind == trace.JobEnd {
				ln.ends = append(ln.ends, e.At)
			}
		case trace.JobRelease:
			ln.releases = append(ln.releases, e.At)
		case trace.DeadlineMiss:
			ln.deadlines = append(ln.deadlines, e.At)
		case trace.DetectorRelease:
			ln.detectors = append(ln.detectors, e.At)
		}
	}
	// Close bursts still open at the window end.
	for task, s := range open {
		if s < to {
			lanes[task].bursts = append(lanes[task].bursts, burst{s, to})
		}
	}
	return lanes
}

// taskOrder resolves the lane order.
func taskOrder(l *trace.Log, opts Options) []string {
	if len(opts.Tasks) > 0 {
		return opts.Tasks
	}
	ts := l.Tasks()
	sort.Strings(ts)
	return ts
}

// ASCII renders the window as text, one lane per task plus an axis.
// Deadline ↓ glyphs are drawn from the optional deadlines map (task →
// relative deadline); misses are marked '!'.
func ASCII(l *trace.Log, opts Options, deadlines map[string]vtime.Duration) string {
	if opts.CellMS <= 0 {
		opts.CellMS = 2
	}
	from, to := opts.From, opts.To
	if to <= from {
		to = from.Add(vtime.Millis(100))
	}
	cells := int((to.Sub(from).Milliseconds() + opts.CellMS - 1) / opts.CellMS)
	if cells <= 0 {
		cells = 1
	}
	tasks := taskOrder(l, opts)
	lanes := extract(l, tasks, from, to)

	cellOf := func(t vtime.Time) int {
		return int(t.Sub(from).Milliseconds() / opts.CellMS)
	}
	in := func(t vtime.Time) bool { return !t.Before(from) && t.Before(to) }

	var b strings.Builder
	nameW := 6
	for _, t := range tasks {
		if len(t) > nameW {
			nameW = len(t)
		}
	}
	for _, task := range tasks {
		ln := lanes[task]
		row := make([]rune, cells)
		for i := range row {
			row[i] = glyphIdle
		}
		for _, bu := range ln.bursts {
			s, e := bu.from, bu.to
			if e.Before(from) || !s.Before(to) {
				continue
			}
			cs, ce := cellOf(vtime.Max(s, from)), cellOf(vtime.Min(e, to))
			if ce >= cells {
				ce = cells - 1
			}
			for i := cs; i <= ce && i >= 0; i++ {
				row[i] = glyphExec
			}
		}
		put := func(ts []vtime.Time, g rune) {
			for _, t := range ts {
				if in(t) {
					if c := cellOf(t); c >= 0 && c < cells {
						row[c] = g
					}
				}
			}
		}
		// WCRT marks: one per release in the window, at the offset.
		if off, ok := opts.WCRTMarks[task]; ok {
			var marks []vtime.Time
			for _, r := range ln.releases {
				marks = append(marks, r.Add(off))
			}
			put(marks, glyphWCRT)
		}
		if d, ok := deadlines[task]; ok {
			var dls []vtime.Time
			for _, r := range ln.releases {
				dls = append(dls, r.Add(d))
			}
			put(dls, glyphDeadline)
		}
		put(ln.detectors, glyphDetector)
		put(ln.releases, glyphRelease)
		put(ln.stops, glyphStop)
		put(ln.deadlines, glyphMiss)
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, task, string(row))
	}
	// Axis: tick every 10 cells.
	axis := make([]rune, cells)
	for i := range axis {
		axis[i] = ' '
	}
	var labels strings.Builder
	fmt.Fprintf(&labels, "%-*s  ", nameW, "")
	lastEnd := 0
	for i := 0; i < cells; i += 10 {
		axis[i] = '|'
		label := fmt.Sprintf("%d", from.Milliseconds()+int64(i)*opts.CellMS)
		pad := i - lastEnd
		if pad < 0 {
			continue
		}
		labels.WriteString(strings.Repeat(" ", pad))
		labels.WriteString(label)
		lastEnd = i + len(label)
	}
	fmt.Fprintf(&b, "%-*s |%s|\n", nameW, "t(ms)", string(axis))
	b.WriteString(labels.String())
	b.WriteByte('\n')
	b.WriteString(legend())
	return b.String()
}

// legend explains the glyphs, echoing the paper's figure caption.
func legend() string {
	return fmt.Sprintf("legend: %c exec  %c release  %c deadline  %c detector  %c wcrt  %c stopped  %c miss\n",
		glyphExec, glyphRelease, glyphDeadline, glyphDetector, glyphWCRT, glyphStop, glyphMiss)
}

// SVG renders the same window as a standalone SVG document.
func SVG(l *trace.Log, opts Options, deadlines map[string]vtime.Duration) string {
	from, to := opts.From, opts.To
	if to <= from {
		to = from.Add(vtime.Millis(100))
	}
	tasks := taskOrder(l, opts)
	lanes := extract(l, tasks, from, to)

	const (
		laneH   = 40
		padL    = 80
		padT    = 20
		pxPerMS = 6.0
	)
	spanMS := float64(to.Sub(from).Milliseconds())
	width := padL + int(spanMS*pxPerMS) + 20
	height := padT + laneH*len(tasks) + 40
	x := func(t vtime.Time) float64 {
		return float64(padL) + float64(t.Sub(from).Nanoseconds())/1e6*pxPerMS
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	for i, task := range tasks {
		ln := lanes[task]
		y := padT + i*laneH
		base := y + laneH - 12
		fmt.Fprintf(&b, `<text x="4" y="%d">%s</text>`+"\n", base, task)
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`+"\n", padL, base, width-10, base)
		for _, bu := range ln.bursts {
			s, e := vtime.Max(bu.from, from), vtime.Min(bu.to, to)
			if e <= s {
				continue
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="14" fill="#4a7db3"/>`+"\n",
				x(s), base-14, x(e)-x(s))
		}
		mark := func(ts []vtime.Time, draw func(px float64, y int) string) {
			for _, t := range ts {
				if t.Before(from) || !t.Before(to) {
					continue
				}
				b.WriteString(draw(x(t), base))
				b.WriteByte('\n')
			}
		}
		mark(ln.releases, func(px float64, y int) string { // up arrow
			return fmt.Sprintf(`<path d="M%.1f %d l-3 8 h6 z" fill="black"/>`, px, y-24)
		})
		if d, ok := deadlines[task]; ok {
			var dls []vtime.Time
			for _, r := range ln.releases {
				dls = append(dls, r.Add(d))
			}
			mark(dls, func(px float64, y int) string { // down arrow
				return fmt.Sprintf(`<path d="M%.1f %d l-3 -8 h6 z" fill="#c33"/>`, px, y+10)
			})
		}
		mark(ln.detectors, func(px float64, y int) string { // diamond
			return fmt.Sprintf(`<path d="M%.1f %d l4 4 l-4 4 l-4 -4 z" fill="#7a3db3"/>`, px, y-30)
		})
		if off, ok := opts.WCRTMarks[task]; ok {
			var ms []vtime.Time
			for _, r := range ln.releases {
				ms = append(ms, r.Add(off))
			}
			mark(ms, func(px float64, y int) string { // chevron
				return fmt.Sprintf(`<path d="M%.1f %d l5 4 l-5 4" stroke="#2a2" fill="none"/>`, px, y-26)
			})
		}
		mark(ln.stops, func(px float64, y int) string { // X
			return fmt.Sprintf(`<path d="M%.1f %d l6 6 m0 -6 l-6 6" stroke="#c33" stroke-width="2"/>`, px-3, y-20)
		})
		mark(ln.deadlines, func(px float64, y int) string { // miss !
			return fmt.Sprintf(`<text x="%.1f" y="%d" fill="#c00" font-weight="bold">!</text>`, px-2, y-18)
		})
	}
	// Axis ticks every 20 ms.
	axisY := padT + laneH*len(tasks) + 8
	for t := from; t.Before(to.Add(1)); t = t.Add(vtime.Millis(20)) {
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#666"/>`+"\n", x(t), axisY-4, x(t), axisY)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d">%d</text>`+"\n", x(t)-10, axisY+14, t.Milliseconds())
	}
	b.WriteString("</svg>\n")
	return b.String()
}
