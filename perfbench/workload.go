package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"
)

// workload is one named configuration of the benchmark. Only the options
// that define a workload are set here; the tuning knobs (ecall batching,
// verify workers, single-threading, timeouts) and the cost model stay at
// the library defaults, so removing a knob never requires editing this file.
type workload struct {
	name      string
	consensus string // WithConsensusMode
	auth      string // WithAgreementAuth
	replicas  int
	batchSize int  // WithBatchSize; 0 keeps the library default batching
	durable   bool // WithPersistence on a WAL directory inside the checkout
	leases    bool // WithReadLeases(true), linearizable by default
	valueSize int  // PUT value size in bytes (at least tagLen)
	keySpace  int  // preloaded keys PUTs draw from; 0 means one key per slot
	readFrac  float64
	rate      float64       // fixed offered rate, ops/s
	slo       time.Duration // p99 limit that defines capacity_ops_s
	// probeFrom is the capacity search's first probe rate, ops/s: twice the
	// fixed rate, or three times on the durable workload, whose knee lies
	// above that, so that its few long probes are spent near the knee.
	probeFrom float64
	probeLen  time.Duration // length of one capacity probe
	// sub is the sub-window a tail percentile is taken over; a run reports
	// the median over its sub-windows. It holds at least one checkpoint's
	// stall on the durable workload, whose checkpoints copy 4 MiB of state.
	sub time.Duration
	// tail is the percentile write_tail_ms and read_tail_ms report: the
	// 90th, or the 99th where checkpoint stalls hold 10-20% of the
	// operations and the 90th would sit on the stall's edge.
	tail float64
}

// slots bounds the outstanding requests of every workload: it is the load
// generator's MaxInFlight, and on workloads without a key space each slot
// owns one key.
const slots = 16

// Each fixed rate keeps the process at 30-40% of a 2-CPU host, so that
// the latencies measure the protocol rather than queueing behind the
// host's other tenants; the capacity search finds the knee.
var workloads = []workload{
	{name: "put-sig", consensus: "classic", auth: "sig", replicas: 4, batchSize: 1,
		valueSize: 10, rate: 100, slo: 50 * time.Millisecond, probeFrom: 200, probeLen: time.Second, sub: time.Second, tail: 0.9},
	{name: "put-trusted-mac", consensus: "trusted", auth: "mac", replicas: 3,
		valueSize: 10, rate: 600, slo: 50 * time.Millisecond, probeFrom: 1200, probeLen: time.Second, sub: time.Second, tail: 0.9},
	{name: "put-durable-state", consensus: "classic", auth: "mac", replicas: 4, durable: true,
		valueSize: 1024, keySpace: 4096, rate: 300, slo: time.Second, probeFrom: 900, probeLen: 1500 * time.Millisecond, sub: 2500 * time.Millisecond, tail: 0.99},
	{name: "readmix-lease", consensus: "classic", auth: "sig", replicas: 4, batchSize: 1, leases: true,
		valueSize: 10, readFrac: 0.9, rate: 500, slo: 50 * time.Millisecond, probeFrom: 1000, probeLen: time.Second, sub: time.Second, tail: 0.9},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// keyCount is the number of distinct keys the workload touches.
func (w workload) keyCount() int {
	if w.keySpace > 0 {
		return w.keySpace
	}
	return slots
}

// preloads reports whether set-up writes every key once before the run:
// the durable workload needs its state size, the read mix needs every GET
// to find a value.
func (w workload) preloads() bool { return w.keySpace > 0 || w.readFrac > 0 }

// tag identifies one PUT: the load phase that issued it (0 is the set-up
// preload), the issuing slot and the arrival sequence number. Its text form
// leads every value, so replicas' application spans, client spans and the
// output check all name the same write.
type tag struct {
	phase int
	slot  int
	seq   uint64
}

// tagLen is the length of a tag's text form: 2 hex digits of phase, 2 of
// slot, 6 of sequence number.
const tagLen = 10

// maxPhase is the highest phase a tag can carry.
const maxPhase = 0xff

func (t tag) String() string { return fmt.Sprintf("%02x%02x%06x", t.phase, t.slot, t.seq) }

// less orders two PUTs to the same key: by phase, then by arrival. One slot
// owns each key and runs its operations one at a time, so this is the order
// in which they were issued.
func (t tag) less(o tag) bool {
	if t.phase != o.phase {
		return t.phase < o.phase
	}
	return t.seq < o.seq
}

func parseTag(v []byte) (tag, bool) {
	if len(v) < tagLen {
		return tag{}, false
	}
	phase, err1 := strconv.ParseUint(string(v[0:2]), 16, 8)
	slot, err2 := strconv.ParseUint(string(v[2:4]), 16, 8)
	seq, err3 := strconv.ParseUint(string(v[4:tagLen]), 16, 32)
	if err1 != nil || err2 != nil || err3 != nil {
		return tag{}, false
	}
	return tag{phase: int(phase), slot: int(slot), seq: seq}, true
}

// gen derives every input of a run from the workload seed: key names, the
// key each PUT writes, the key each GET reads and every value. The program
// under test sees only the ops built from these.
type gen struct {
	w    workload
	seed uint64
	keys []string
}

func newGen(w workload, seed int64) *gen {
	g := &gen{w: w, seed: uint64(seed)}
	g.keys = make([]string, w.keyCount())
	for i := range g.keys {
		g.keys[i] = fmt.Sprintf("k%04d-%08x", i, uint32(mix(g.seed, 0, uint64(i))))
	}
	return g
}

// mix is a splitmix64-style hash of the seed, a stream selector and an
// index: a pure function, so inputs never depend on scheduling.
func mix(seed, stream, i uint64) uint64 {
	z := seed ^ stream*0x9e3779b97f4a7c15 ^ i*0xd1b54a32d192ed03
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// putKey is the key a PUT writes. Key i belongs to slot i mod slots, so
// writes to one key never overlap and "the last acknowledged value" of a
// key is well defined. Preload PUTs (phase 0) write key seq.
func (g *gen) putKey(t tag) string {
	switch {
	case t.phase == 0:
		return g.keys[t.seq]
	case g.w.keySpace == 0:
		return g.keys[t.slot]
	}
	perSlot := uint64(g.w.keySpace / slots)
	return g.keys[t.slot+slots*int(mix(g.seed, 1<<8|uint64(t.phase), t.seq)%perSlot)]
}

// readKey is the key a GET reads: any key, drawn by seed.
func (g *gen) readKey(phase int, seq uint64) string {
	return g.keys[mix(g.seed, 2<<8|uint64(phase), seq)%uint64(len(g.keys))]
}

// value is the PUT payload: the tag, repeated to the workload's value size.
func (g *gen) value(t tag) []byte {
	s := []byte(t.String())
	return bytes.Repeat(s, g.w.valueSize/tagLen+1)[:g.w.valueSize]
}

// validValue reports whether v is exactly the value some tag produces.
func (g *gen) validValue(v []byte) (tag, bool) {
	t, ok := parseTag(v)
	if !ok || !bytes.Equal(v, g.value(t)) {
		return tag{}, false
	}
	return t, true
}
