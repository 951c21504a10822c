package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced pass. Spans of one sampled
// operation share Op. The root (Parent "") wraps the end-to-end call as the
// client saw it; its children wrap replays of the same inputs through one
// layer's exported functions, made right after the call and laid end to end
// from the root's start, because the benchmark measures from outside and
// does not edit the program to time the layer in place.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer samples
// nothing, which is the untraced pass.
type tracer struct {
	workload string
	rec      *recorder // a replay is an operation: attempted, and failed if it errors
	epoch    time.Time
	stride   [numClasses]int
	seen     [numClasses]int
	spans    []span
	ops      int
	root     int   // index of the current root in spans
	last     int   // index of the current root's latest direct child
	cursor   int64 // where the next child of the current root starts
}

// newTracer samples every stride-th operation of a class: replays cost as
// much as the operation, so cheap classes are sampled sparsely.
func newTracer(workload string, rec *recorder) *tracer {
	t := &tracer{workload: workload, rec: rec, epoch: time.Now()}
	for c := range t.stride {
		t.stride[c] = 2
	}
	for _, c := range []int{clsPrepared, clsAdhoc, clsPing, clsInsert, clsRead} {
		t.stride[c] = 50
	}
	return t
}

func (t *tracer) sample(class int) bool {
	if t == nil {
		return false
	}
	t.seen[class]++
	return t.seen[class]%t.stride[class] == 1
}

// begin opens the root span of a sampled operation.
func (t *tracer) begin(class int, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.epoch))
	t.ops++
	t.root = len(t.spans)
	t.cursor = s
	t.spans = append(t.spans, span{t.workload, t.ops, classNames[class], "", s, s + int64(d)})
}

// child replays one layer call reps times and records the mean as a child
// of the current root. Short calls need the repetition: one clock read
// costs about as much as encoding a three-bind frame. A replay that returns
// an error is a failed operation and leaves no span.
func (t *tracer) child(name string, reps int, fn func() error) {
	d, ok := t.meanOf(name, reps, fn)
	if !ok {
		return
	}
	t.last = len(t.spans)
	t.spans = append(t.spans, span{t.workload, t.ops, name, t.spans[t.root].Name, t.cursor, t.cursor + d})
	t.cursor += d
}

// nested records a replay of work the latest child already contains (the
// parser inside an ad-hoc execution), as that child's own child.
func (t *tracer) nested(name string, reps int, fn func() error) {
	d, ok := t.meanOf(name, reps, fn)
	if !ok {
		return
	}
	p := t.spans[t.last]
	t.spans = append(t.spans, span{t.workload, t.ops, name, p.Name, p.StartNs, p.StartNs + d})
}

func (t *tracer) meanOf(name string, reps int, fn func() error) (int64, bool) {
	t.rec.attempted++
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			t.rec.fail("replay "+name, "%v", err)
			return 0, false
		}
	}
	return int64(time.Since(t0)) / int64(reps), true
}

// durations returns the length of every span called name, under parent
// when one is given.
func (t *tracer) durations(name, parent string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name && (parent == "" || s.Parent == parent) {
			out = append(out, s.EndNs-s.StartNs)
		}
	}
	return out
}

// selfTimes returns, for every root called name, its duration minus the
// part its children cover (children are clipped to the root's interval, so
// covered + self = root always holds). For a wire_point statement this is
// wire.unattributed_us: socket, goroutine hand-offs, scheduler.
func (t *tracer) selfTimes(name string) []int64 {
	var out []int64
	for i := 0; i < len(t.spans); i++ {
		r := t.spans[i]
		if r.Parent != "" || r.Name != name {
			continue
		}
		self := r.EndNs - r.StartNs
		for _, c := range t.spans[i+1:] {
			if c.Op != r.Op {
				break
			}
			if c.Parent != r.Name {
				continue
			}
			end := c.EndNs
			if end > r.EndNs {
				end = r.EndNs
			}
			if end > c.StartNs {
				self -= end - c.StartNs
			}
		}
		out = append(out, self)
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
