package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft"
	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/messages"
)

// ledger records every PUT the benchmark issues and every acknowledgement,
// and checks each GET result against them. A GET must return a value some
// PUT of that key produced; after the run, every key must hold its last
// acknowledged value or that of a later, unacknowledged PUT of the same key.
type ledger struct {
	g *gen

	mu       sync.Mutex
	issued   map[tag]bool
	acked    map[string]tag
	problems []string

	puts, gets, errs atomic.Uint64
}

func newLedger(g *gen) *ledger {
	return &ledger{g: g, issued: make(map[tag]bool), acked: make(map[string]tag)}
}

// put builds the PUT for t and records it as issued.
func (l *ledger) put(t tag) []byte {
	l.mu.Lock()
	l.issued[t] = true
	l.mu.Unlock()
	return splitbft.EncodePut(l.g.putKey(t), l.g.value(t))
}

func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) < 10 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// done books the outcome of one operation the benchmark sent. final marks
// GETs issued after every PUT finished.
func (l *ledger) done(op, result []byte, err error, final bool) {
	if err != nil {
		l.errs.Add(1)
		return
	}
	d := messages.NewDecoder(op)
	d.U8()
	key := string(d.VarBytes())
	if app.IsRead(op) {
		l.gets.Add(1)
		l.checkRead(key, result)
		if final {
			l.checkFinal(key, result)
		}
		return
	}
	l.puts.Add(1)
	t, ok := parseTag(d.VarBytes())
	if !ok || !bytes.Equal(result, []byte("OK")) {
		l.fail("PUT %s answered %q", key, result)
		return
	}
	l.mu.Lock()
	if prev, seen := l.acked[key]; !seen || prev.less(t) {
		l.acked[key] = t
	}
	l.mu.Unlock()
}

// checkRead verifies that a GET of key returned a value a PUT of that key
// wrote. Every key the workload reads is written before it is read.
func (l *ledger) checkRead(key string, v []byte) {
	if bytes.Equal(v, []byte("NOTFOUND")) {
		l.mu.Lock()
		_, acked := l.acked[key]
		l.mu.Unlock()
		if acked {
			l.fail("GET %s found no value after a PUT to it was acknowledged", key)
		}
		return
	}
	t, ok := l.g.validValue(v)
	if !ok {
		l.fail("GET %s returned %q, not a value any PUT writes", key, v)
		return
	}
	l.mu.Lock()
	issued := l.issued[t]
	l.mu.Unlock()
	if !issued || l.g.putKey(t) != key {
		l.fail("GET %s returned the value of PUT %s, which was not issued to this key", key, t)
	}
}

// checkFinal verifies a GET issued after every PUT finished: it must see
// the key's last acknowledged PUT or a later one.
func (l *ledger) checkFinal(key string, v []byte) {
	t, ok := l.g.validValue(v)
	l.mu.Lock()
	last, acked := l.acked[key]
	l.mu.Unlock()
	if acked && (!ok || t.less(last)) {
		l.fail("read-back of %s returned %q, older than its last acknowledged PUT %s", key, v, last)
	}
}

func (l *ledger) problemList() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.problems...)
}

// trackedClient is the invoker the load generator drives: it forwards to a
// splitbft.Client, books every outcome in the ledger and, in traced runs,
// records one client span per operation.
type trackedClient struct {
	cl    *splitbft.Client
	led   *ledger
	spans *spanLog // nil in untraced runs
	final bool     // the read-back phase: no PUT is outstanding
}

func (c *trackedClient) Invoke(op []byte) ([]byte, error) {
	return c.call(op, "client.invoke", c.cl.Invoke)
}

func (c *trackedClient) InvokeRead(op []byte) ([]byte, error) {
	return c.call(op, "client.read", c.cl.InvokeRead)
}

func (c *trackedClient) call(op []byte, name string, f func([]byte) ([]byte, error)) ([]byte, error) {
	start := time.Now()
	res, err := f(op)
	if c.spans != nil {
		c.spans.add(name, opSpanID(op), -1, start, time.Now())
	}
	c.led.done(op, res, err, c.final)
	return res, err
}

// opSpanID names the request an op belongs to: the tag of a PUT, or "get:"
// and the key for a GET (reads carry no tag).
func opSpanID(op []byte) string {
	d := messages.NewDecoder(op)
	d.U8()
	key := d.VarBytes()
	if app.IsRead(op) {
		return "get:" + string(key)
	}
	v := d.VarBytes()
	if len(v) < tagLen {
		return ""
	}
	return string(v[:tagLen])
}

// awaitAgreement waits until every replica's application digest matches,
// or the deadline passes.
func awaitAgreement(c *splitbft.Cluster, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		nodes := c.Nodes()
		ref := nodes[0].App().Digest()
		diverged := -1
		for i, n := range nodes[1:] {
			if n.App().Digest() != ref {
				diverged = i + 1
				break
			}
		}
		if diverged < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %d's state digest differs from replica 0's after %v of quiescence", diverged, within)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
