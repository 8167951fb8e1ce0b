package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the program. Trace groups the spans of
// one unit of work (see README.md); Parent is the ID of the span that
// caused this one, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) newID() int64 { return l.next.Add(1) }

func (l *spanLog) add(s span) {
	if s.ID == 0 {
		s.ID = l.newID()
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.spans)
}

// write stores the spans as JSON lines, ordered by start time.
func (l *spanLog) write(path string) error {
	spans := l.all()
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per span name, every span's self time in ns: its
// duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string][]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]int64)
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = append(out[s.Name], self)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
