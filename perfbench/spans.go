package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer, recorded from
// outside the program. Parent is 0 for a root span; Rank is -1 where no
// rank applies.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the benchmark ends. Times are
// nanoseconds since the recorder's epoch. A nil recorder records nothing,
// which is how untraced runs pay no tracing cost. Safe for concurrent use.
type spanRecorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// newID reserves a span id, so a parent's id is known to its children
// before the parent ends.
func (r *spanRecorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span under a reserved id (0 reserves one) and
// returns the id.
func (r *spanRecorder) add(id, parent uint64, run, name string, rank int, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	s := span{ID: id, Parent: parent, Run: run, Name: name, Rank: rank,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// len reports how many spans were recorded.
func (r *spanRecorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeJSONL writes every span as one JSON object per line to path,
// creating the parent directory.
func (r *spanRecorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
