package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft"
)

// span is one timed call the benchmark observed at a layer boundary. Spans
// of one request share an ID: a PUT's tag, or "get:<key>" for reads.
// Node is the replica whose application ran the call, -1 for the client.
type span struct {
	Name  string `json:"name"`
	ID    string `json:"id,omitempty"`
	Node  int    `json:"node"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(name, id string, node int, start, end time.Time) {
	s := span{Name: name, ID: id, Node: node, Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.all() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// writeSelfTime summarizes client.invoke spans: the median span, and the
// median self time — the span minus the part of it covered by the
// app.execute spans of the same PUT on any replica.
func writeSelfTime(spans []span) (invokeP50, selfP50 time.Duration, n int) {
	children := make(map[string][]span)
	for _, s := range spans {
		if s.Name == "app.execute" && s.ID != "" {
			children[s.ID] = append(children[s.ID], s)
		}
	}
	var total, self []int64
	for _, s := range spans {
		if s.Name != "client.invoke" {
			continue
		}
		total = append(total, s.End-s.Start)
		self = append(self, s.End-s.Start-covered(s, children[s.ID]))
	}
	return time.Duration(median(total)), time.Duration(median(self)), len(total)
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, end int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			end = hi
		}
	}
	return sum
}

// appStats accumulates the time the replicas spend inside the application,
// summed over every replica of the cluster.
type appStats struct {
	executes, executeNs atomic.Int64
	reads, readNs       atomic.Int64
	digests, digestNs   atomic.Int64
	snaps, snapNs       atomic.Int64
}

type appCounts struct {
	executes, executeNs, reads, readNs, digests, digestNs, snaps, snapNs int64
}

func (s *appStats) snapshot() appCounts {
	return appCounts{
		s.executes.Load(), s.executeNs.Load(), s.reads.Load(), s.readNs.Load(),
		s.digests.Load(), s.digestNs.Load(), s.snaps.Load(), s.snapNs.Load(),
	}
}

func (a appCounts) sub(b appCounts) appCounts {
	return appCounts{
		a.executes - b.executes, a.executeNs - b.executeNs, a.reads - b.reads, a.readNs - b.readNs,
		a.digests - b.digests, a.digestNs - b.digestNs, a.snaps - b.snaps, a.snapNs - b.snapNs,
	}
}

// timedApp wraps the key-value store in traced runs. It times Execute,
// ExecuteRead, Digest and Snapshot and records a span per executed op.
// It forwards ExecuteRead, so the lease read path stays live.
type timedApp struct {
	kv    *splitbft.KVStore
	node  int
	stats *appStats
	spans *spanLog
}

// newTimedApps returns a WithApp factory. Cluster nodes are built in ID
// order and each calls the factory once, so the call count names the node.
func newTimedApps(stats *appStats, spans *spanLog) func() splitbft.Application {
	var built atomic.Int64
	return func() splitbft.Application {
		return &timedApp{kv: splitbft.NewKVStore(), node: int(built.Add(1) - 1), stats: stats, spans: spans}
	}
}

func (a *timedApp) Execute(client uint32, op []byte) []byte {
	start := time.Now()
	res := a.kv.Execute(client, op)
	end := time.Now()
	a.stats.executes.Add(1)
	a.stats.executeNs.Add(int64(end.Sub(start)))
	a.spans.add("app.execute", opSpanID(op), a.node, start, end)
	return res
}

func (a *timedApp) ExecuteRead(client uint32, op []byte) ([]byte, bool) {
	start := time.Now()
	res, ok := a.kv.ExecuteRead(client, op)
	end := time.Now()
	a.stats.reads.Add(1)
	a.stats.readNs.Add(int64(end.Sub(start)))
	a.spans.add("app.read", opSpanID(op), a.node, start, end)
	return res, ok
}

func (a *timedApp) Digest() splitbft.Digest {
	start := time.Now()
	d := a.kv.Digest()
	a.stats.digests.Add(1)
	a.stats.digestNs.Add(int64(time.Since(start)))
	return d
}

func (a *timedApp) Snapshot() []byte {
	start := time.Now()
	s := a.kv.Snapshot()
	a.stats.snaps.Add(1)
	a.stats.snapNs.Add(int64(time.Since(start)))
	return s
}

func (a *timedApp) Restore(snapshot []byte) error { return a.kv.Restore(snapshot) }

// spanFile is where a traced run leaves its spans, inside the checkout.
func spanFile(outDir, workload string, seed int64) string {
	return filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
