package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"factor/internal/telemetry"
)

// spanRec is one recorded span: a public call into a layer, made from
// the benchmark's own code, or one of the program's existing spans
// adopted under the call that contains it.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0: a root
	Name    string `json:"name"`
	Job     string `json:"job"`
	StartUS int64  `json:"start_us"` // since the recorder started
	DurUS   int64  `json:"dur_us"`

	start, end time.Time
}

// spanRecorder keeps a traced run's spans in memory until the run ends.
// It is used from one goroutine.
type spanRecorder struct {
	t0    time.Time
	spans []*spanRec
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span; finish closes it.
func (r *spanRecorder) begin(name, job string, parent *spanRec) *spanRec {
	s := &spanRec{ID: len(r.spans) + 1, Name: name, Job: job, start: time.Now()}
	if parent != nil {
		s.Parent = parent.ID
	}
	s.StartUS = s.start.Sub(r.t0).Microseconds()
	r.spans = append(r.spans, s)
	return s
}

func (s *spanRec) finish() {
	s.end = time.Now()
	s.DurUS = s.end.Sub(s.start).Microseconds()
}

// seconds is the span's duration.
func (s *spanRec) seconds() float64 { return s.end.Sub(s.start).Seconds() }

// adoptSlack absorbs the microsecond rounding of the program's spans
// and the gap between a telemetry handle's start and the clock reading
// taken after it.
const adoptSlack = 50 * time.Microsecond

// adopt imports the spans the program itself recorded on tel (a
// handle with tracing enabled, created just before telStart) as
// children of the innermost recorded span of job that contains each.
// A program span no recorded span contains becomes a root.
func (r *spanRecorder) adopt(tel *telemetry.Telemetry, telStart time.Time, job string) {
	own := append([]*spanRec(nil), r.spans...)
	for _, ps := range tel.ExportSpans() {
		start := telStart.Add(time.Duration(ps.TS) * time.Microsecond)
		end := start.Add(time.Duration(ps.Dur) * time.Microsecond)
		var parent *spanRec
		for _, s := range own {
			if s.Job != job || s.start.After(start.Add(adoptSlack)) || s.end.Before(end.Add(-adoptSlack)) {
				continue
			}
			if parent == nil || s.end.Sub(s.start) < parent.end.Sub(parent.start) {
				parent = s
			}
		}
		s := &spanRec{ID: len(r.spans) + 1, Name: ps.Name, Job: job, start: start, end: end,
			StartUS: start.Sub(r.t0).Microseconds(), DurUS: ps.Dur}
		if parent != nil {
			s.Parent = parent.ID
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func (r *spanRecorder) selfTimes() map[string]float64 {
	child := map[int]float64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.seconds()
		}
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		self[s.Name] += max(s.seconds()-child[s.ID], 0)
	}
	return self
}

// writeFile writes the spans as JSON, in start order.
func (r *spanRecorder) writeFile(path string) error {
	spans := append([]*spanRec(nil), r.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
