package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share op;
// tid is the lane the span is drawn on in the Chrome trace viewer.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int           // index of the enclosing span, -1 for roots
	op, tid    int
	bytes      int64
}

// tracer keeps spans in memory; they are aggregated and written out when
// the run ends. A nil *tracer records nothing, so untraced ops share the
// traced code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, op: op, tid: tid})
	return len(t.spans) - 1
}

// end closes span i, recording the bytes it moved.
func (t *tracer) end(i int, bytes int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].end = now
	t.spans[i].bytes = bytes
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, op, tid int, f func()) {
	i := t.begin(name, parent, op, tid)
	f()
	t.end(i, 0)
}

// layerTotals aggregates spans by name: self time (span minus the part of
// it its children cover), call count and bytes.
type layerTotals struct {
	self  map[string]time.Duration
	calls map[string]int
	bytes map[string]int64
}

func (t *tracer) totals() layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return aggregate(t.spans)
}

func aggregate(spans []span) layerTotals {
	lt := layerTotals{self: map[string]time.Duration{}, calls: map[string]int{}, bytes: map[string]int64{}}
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range spans {
		lt.self[s.name] += s.end - s.start - covered(spans, children[i], s.start, s.end)
		lt.calls[s.name]++
		lt.bytes[s.name] += s.bytes
	}
	return lt
}

// covered returns how much of [lo, hi) the union of the child spans covers.
// Children may overlap: a writer's flusher goroutine writes to the sink
// while the op's own goroutine is inside Write.
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			sum += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return sum + curB - curA
}

// maxTraceEvents caps the span file; the metrics still see every span.
const maxTraceEvents = 200_000

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one complete ("X") event per span, times in microseconds.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	n := min(len(t.spans), maxTraceEvents)
	events := make([]event, n)
	for i, s := range t.spans[:n] {
		events[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": i, "parent": s.parent, "op": s.op, "bytes": s.bytes}}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Span- and byte-counting I/O wrappers for the real path's *os.File.

type tracedReader struct {
	r               io.Reader
	t               *tracer
	name            string
	parent, op, tid int
}

func (x *tracedReader) Read(p []byte) (int, error) {
	i := x.t.begin(x.name, x.parent, x.op, x.tid)
	n, err := x.r.Read(p)
	x.t.end(i, int64(n))
	return n, err
}

type tracedWriter struct {
	w               io.Writer
	t               *tracer
	name            string
	parent, op, tid int
}

func (x *tracedWriter) Write(p []byte) (int, error) {
	i := x.t.begin(x.name, x.parent, x.op, x.tid)
	n, err := x.w.Write(p)
	x.t.end(i, int64(n))
	return n, err
}

type tracedReaderAt struct {
	r    io.ReaderAt
	t    *tracer
	name string
	tid  int
}

// ReadAt spans have no parent: a ReaderAt is shared by concurrent windows,
// and a ReadAt call carries no trace of which window issued it.
func (x *tracedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	i := x.t.begin(x.name, -1, -1, x.tid)
	n, err := x.r.ReadAt(p, off)
	x.t.end(i, int64(n))
	return n, err
}

// reader wraps r in a traced reader, or returns r itself when untraced so
// io.Copy keeps the file's own fast paths.
func (t *tracer) reader(r io.Reader, name string, parent, op, tid int) io.Reader {
	if t == nil {
		return r
	}
	return &tracedReader{r: r, t: t, name: name, parent: parent, op: op, tid: tid}
}

func (t *tracer) writer(w io.Writer, name string, parent, op, tid int) io.Writer {
	if t == nil {
		return w
	}
	return &tracedWriter{w: w, t: t, name: name, parent: parent, op: op, tid: tid}
}

func (t *tracer) readerAt(r io.ReaderAt, name string, tid int) io.ReaderAt {
	if t == nil {
		return r
	}
	return &tracedReaderAt{r: r, t: t, name: name, tid: tid}
}
