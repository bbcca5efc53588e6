package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/splitbft/splitbft"
	"github.com/splitbft/splitbft/experiments/load"
	"github.com/splitbft/splitbft/internal/transport"
)

// rig is one in-process cluster under a workload, with the benchmark's
// clients and, in traced runs, its observation hooks.
type rig struct {
	w       workload
	seed    int64
	g       *gen
	led     *ledger
	cluster *splitbft.Cluster
	clients []*splitbft.Client
	walDir  string

	// Traced runs only.
	spans       *spanLog
	app         *appStats
	msgs, bytes atomic.Uint64
}

// keySeed derives the enclave and sealing keys of durable clusters; a
// constant, because the workload seed must only shape the inputs.
var keySeed = []byte("perfbench")

// newRig starts the cluster, attests nproc clients and, on workloads that
// need it, preloads every key. The returned duration is the set-up time.
func newRig(w workload, seed int64, traced bool, walDir string) (*rig, time.Duration, error) {
	r := &rig{w: w, seed: seed, g: newGen(w, seed), walDir: walDir}
	r.led = newLedger(r.g)
	opts := []splitbft.Option{
		splitbft.WithConsensusMode(w.consensus),
		splitbft.WithAgreementAuth(w.auth),
		splitbft.WithNetworkSeed(seed),
	}
	if w.batchSize > 0 {
		opts = append(opts, splitbft.WithBatchSize(w.batchSize))
	}
	if w.leases {
		opts = append(opts, splitbft.WithReadLeases(true))
	}
	if w.durable {
		opts = append(opts, splitbft.WithKeySeed(keySeed), splitbft.WithPersistence(walDir))
	}
	if traced {
		r.spans = newSpanLog()
		r.app = new(appStats)
		opts = append(opts, splitbft.WithObservability(), splitbft.WithApp(newTimedApps(r.app, r.spans)))
	}

	start := time.Now()
	c, err := splitbft.NewCluster(w.replicas, opts...)
	if err != nil {
		return nil, 0, fmt.Errorf("start cluster: %w", err)
	}
	r.cluster = c
	if traced {
		c.Net().AddObserver(func(_, _ transport.Endpoint, data []byte) {
			r.msgs.Add(1)
			r.bytes.Add(uint64(len(data)))
		})
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cl, err := c.NewClient(uint32(1000 + i))
		if err == nil {
			err = cl.Attest()
		}
		if err != nil {
			r.close()
			return nil, 0, fmt.Errorf("client %d: %w", i, err)
		}
		r.clients = append(r.clients, cl)
	}
	if w.preloads() {
		if err := r.preload(); err != nil {
			r.close()
			return nil, 0, err
		}
	}
	return r, time.Since(start), nil
}

// preloadWriters is the preload's concurrency: enough outstanding PUTs to
// fill the default batches, so set-up does not pay one WAL flush per key.
const preloadWriters = 64

// preload writes every key once (phase 0). Each key is written exactly
// once, so any writer may write it.
func (r *rig) preload() error {
	invokers := r.invokers(false)
	var wg sync.WaitGroup
	errs := make([]error, preloadWriters)
	for i := 0; i < preloadWriters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := invokers[i%len(invokers)]
			for k := i; k < len(r.g.keys); k += preloadWriters {
				if _, err := cl.Invoke(r.led.put(tag{phase: 0, slot: k % slots, seq: uint64(k)})); err != nil {
					errs[i] = fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *rig) close() {
	r.cluster.Close()
	if r.walDir != "" {
		_ = os.RemoveAll(r.walDir)
	}
}

func (r *rig) invokers(final bool) []load.Invoker {
	out := make([]load.Invoker, len(r.clients))
	for i, cl := range r.clients {
		out[i] = &trackedClient{cl: cl, led: r.led, spans: r.spans, final: final}
	}
	return out
}

// queueDepth bounds the arrivals waiting for a free slot. It holds a
// checkpoint stall's worth of arrivals at the durable workload's rates, so
// a stall shows as latency rather than as drops, while an overloaded probe
// still drains within a second.
const queueDepth = 256

// windows offers the workload's op mix at a fixed rate through the load
// generator, as n back-to-back sub-windows of length sub; only the first
// has a warm-up. Each sub-window gets its own phase, starting at phase, so
// tags stay distinct. Final windows are GET-only and run after every PUT
// has finished.
func (r *rig) windows(phase int, rate float64, warmup time.Duration, n int, sub time.Duration, final bool) (windowSet, error) {
	var ws windowSet
	readFrac := r.w.readFrac
	if final {
		readFrac = 1
	}
	for i := 0; i < n; i++ {
		if phase+i > maxPhase {
			return ws, fmt.Errorf("phase %d exceeds the tag's range", phase+i)
		}
		p := phase + i
		st, err := load.Run(load.Config{
			Rate:        rate,
			Arrival:     load.ArrivalFixed,
			Warmup:      warmup,
			Duration:    sub,
			MaxInFlight: slots,
			QueueDepth:  queueDepth,
			Clients:     r.invokers(final),
			MakeOp: func(slot int, seq uint64) []byte {
				return r.led.put(tag{phase: p, slot: slot, seq: seq})
			},
			ReadFrac: readFrac,
			MakeRead: func(_ int, seq uint64) []byte {
				return splitbft.EncodeGet(r.g.readKey(p, seq))
			},
			Seed: r.seed + int64(p),
		})
		if err != nil {
			return ws, err
		}
		ws = append(ws, st)
		warmup = 0
	}
	return ws, nil
}

// windowSet is the sub-windows of one fixed-rate window.
type windowSet []load.Stats

// class selects the histogram of all ops, of writes or of reads.
type class int

const (
	allOps class = iota
	writeOps
	readOps
)

func pick(st *load.Stats, c class) *load.Histogram {
	mixed := st.Reads+st.Writes > 0
	switch {
	case c == writeOps && mixed:
		return &st.WriteHist
	case c == readOps && mixed:
		return &st.ReadHist
	}
	return &st.Hist
}

// quantile is quantile q over all sub-windows merged.
func (ws windowSet) quantile(c class, q float64) time.Duration {
	var h load.Histogram
	for i := range ws {
		h.Merge(pick(&ws[i], c))
	}
	return h.Quantile(q)
}

// subMedian is the median of the sub-windows' q-quantiles: a burst of
// scheduling noise moves its own sub-window's tail but not the median.
func (ws windowSet) subMedian(c class, q float64) time.Duration {
	var xs []int64
	for i := range ws {
		xs = append(xs, int64(pick(&ws[i], c).Quantile(q)))
	}
	return time.Duration(median(xs))
}

// p99s lists the sub-windows' 99th percentiles in milliseconds.
func (ws windowSet) p99s(c class) string {
	var b strings.Builder
	for i := range ws {
		fmt.Fprintf(&b, " %.1f", ms(pick(&ws[i], c).Quantile(0.99)))
	}
	return strings.TrimSpace(b.String())
}

func (ws windowSet) sum() (offered, achieved, dropped, errors uint64) {
	for _, st := range ws {
		offered += st.Offered
		achieved += st.Achieved
		dropped += st.Dropped
		errors += st.Errors
	}
	return
}

// check waits for the replicas to agree on the application state and
// returns every problem the ledger or the digests showed.
func (r *rig) check() []string {
	problems := r.led.problemList()
	if err := awaitAgreement(r.cluster, 5*time.Second); err != nil {
		problems = append(problems, err.Error())
	}
	return problems
}

// meetsSLO is the capacity criterion: no drops, no errors and a p99 within
// the workload's limit.
func (r *rig) meetsSLO(ws windowSet) bool {
	offered, achieved, dropped, errors := ws.sum()
	return dropped == 0 && errors == 0 && achieved == offered && achieved > 0 && ws.subMedian(allOps, 0.99) <= r.w.slo
}

// capacity searches for the highest fixed offered rate whose probe has no
// drops, no errors and a p99 within the SLO. Starting at the workload's
// first probe rate, it grows the rate by half until a probe fails, then
// narrows the bracket between the highest pass and the lowest failure
// until the budget is spent: each probe takes the bracket's geometric
// mean, but goes at most a fifth below the failure, so that a failure just
// above a far-off pass is resolved from the top. Every probe's verdict
// stands as measured: a failure is never retried, so a suspicion storm
// that inflates the p99 caps the search. A probe that dropped arrivals
// completed them at a rate the system could not sustain, so that rate
// (when above the highest pass) caps the bracket. fixedPass says whether
// the fixed-rate window itself passed.
func (r *rig) capacity(phase int, fixedPass bool, budget time.Duration) (float64, []probe) {
	const warmup = 200 * time.Millisecond
	var probes []probe
	lo, hi := 0.0, 0.0
	if fixedPass {
		lo = r.w.rate
	}
	deadline := time.Now().Add(budget)
	for rate := r.w.probeFrom; phase <= maxPhase && time.Until(deadline) >= warmup+r.w.probeLen; {
		ws, err := r.windows(phase, rate, warmup, 1, r.w.probeLen, false)
		phase++
		// An overloaded probe leaves lagging replicas catching up; wait
		// for them so the next probe starts from a quiescent cluster.
		_ = awaitAgreement(r.cluster, time.Second)
		ok := err == nil && r.meetsSLO(ws)
		offered, achieved, dropped, errors := ws.sum()
		probes = append(probes, probe{rate: rate, p99: ws.quantile(allOps, 0.99), dropped: dropped, errors: errors, pass: ok})
		done := rate * float64(achieved) / float64(max(offered, 1))
		switch {
		case ok:
			lo = rate
		case dropped > 0 && done > lo:
			hi = done
		default:
			hi = rate
		}
		if hi == 0 {
			rate = lo * 1.5
		} else {
			rate = max(math.Sqrt(lo*hi), hi/1.25)
		}
	}
	return lo, probes
}

type probe struct {
	rate            float64
	p99             time.Duration
	dropped, errors uint64
	pass            bool
}

// snap is one reading of every counter the benchmark takes its metrics
// from. Metrics are deltas between two snaps.
type snap struct {
	cpu                   time.Duration
	allocB, gcCPU, allCPU float64
	nodes                 []nodeSnap
	resends               uint64
	msgs, bytes           uint64
	app                   appCounts
	puts, gets, errs      uint64
}

type nodeSnap struct {
	enclaves                           []splitbft.EnclaveStat
	crypto                             splitbft.CryptoStats
	cache                              splitbft.VerifyCacheStats
	executed, batches, suspects, local uint64
	metrics                            map[string]float64
}

func (r *rig) snapshot() snap {
	s := snap{
		cpu:   processCPU(),
		msgs:  r.msgs.Load(),
		bytes: r.bytes.Load(),
		puts:  r.led.puts.Load(),
		gets:  r.led.gets.Load(),
		errs:  r.led.errs.Load(),
	}
	s.allocB, s.gcCPU, s.allCPU = runtimeCounters()
	if r.app != nil {
		s.app = r.app.snapshot()
	}
	for _, cl := range r.clients {
		s.resends += cl.Resends()
	}
	for _, n := range r.cluster.Nodes() {
		ns := nodeSnap{
			enclaves: n.EnclaveStats(),
			crypto:   n.CryptoStats(),
			cache:    n.VerifyCacheStats(),
			executed: n.ExecutedOps(),
			batches:  n.Batches(),
			suspects: n.Suspects(),
			local:    n.LocalReads(),
			metrics:  make(map[string]float64),
		}
		for _, m := range n.Metrics() {
			name, _, _ := strings.Cut(m.Name, "{")
			ns.metrics[name] += m.Value
		}
		s.nodes = append(s.nodes, ns)
	}
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runtimeCounters() (allocB, gcCPU, allCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}
