// Command perfbench is the repository benchmark: it runs one named workload
// against an in-process SplitBFT cluster, checks that the replicas agree
// and that every read saw a value a write produced, and prints the
// workload's metrics as one JSON object on its last line of output.
//
//	perfbench --workload put-sig --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it prints the end-to-end metrics: latency at the
// workload's fixed rate, capacity at the workload's p99 limit, CPU per
// operation, memory and set-up time. With --trace 1 it runs the workload
// twice at the fixed rate, untraced and then traced, and prints the
// per-layer metrics of the traced run plus the tracing overhead.
//
// Everything is measured from outside the program: at the calls the
// benchmark makes into the public API, in an application wrapper, on a
// simulated-network observer, and from the counters the nodes export.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/splitbft/splitbft"
)

// outDir holds what a run leaves behind (spans, WAL directories), relative
// to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

func main() {
	workloadName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: fixes keys, values and the network seed")
	seconds := flag.Int("seconds", 24, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*workloadName)
	if !ok || *seconds < 4 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <n≥4> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out, err := json.Marshal(res.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// outcome is a finished run: its metrics in print order, the operations
// it counts as attempted and failed, and any failed output check.
type outcome struct {
	metrics           []metric
	attempted, failed uint64
	problems          []string
}

type metric struct {
	name, unit string
	value      float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

func (o *outcome) result() jsonResult {
	m := make(map[string]jsonMetric, len(o.metrics))
	for _, x := range o.metrics {
		m[x.name] = jsonMetric{Value: x.value, Unit: x.unit}
	}
	return jsonResult{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

func run(w workload, seed int64, budget time.Duration, traced bool) (*outcome, error) {
	walRoot, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("wal-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)
	printEnv(w, seed, traced, walRoot)
	if traced {
		return runTraced(w, seed, budget, walRoot)
	}
	return runEndToEnd(w, seed, budget, walRoot)
}

// setupRepeats is how many times an end-to-end run builds the cluster;
// setup_s is the median. A bare set-up takes 2-18 ms, so the median needs
// many of them to hold still between runs; the read mix's preload makes
// its set-up about 45 ms, and the durable workload's 4 MiB preload per
// replica takes over a second.
func setupRepeats(w workload) int {
	switch {
	case w.durable:
		return 3
	case w.preloads():
		return 61
	}
	return 151
}

// fixedPhase is the tag phase of the fixed-rate window's first sub-window;
// set-up preloads are phase 0, and every later sub-window takes the next
// free phase.
const fixedPhase = 1

// plan splits a run's budget into sub-windows of the workload's length: 35%
// for the fixed-rate window, 15% for the GET-only read-back, the rest for
// the capacity search.
func plan(w workload, budget time.Duration) (fixedSubs, readSubs int, capBudget time.Duration) {
	fixedSubs = max(3, int(budget*35/100/w.sub))
	readSubs = max(3, int(budget*15/100/w.sub))
	return fixedSubs, readSubs, budget - time.Duration(fixedSubs+readSubs)*w.sub
}

// runEndToEnd measures, in order: set-up, the fixed-rate window, a
// GET-only read-back of the final state at the same rate, and the capacity
// search.
func runEndToEnd(w workload, seed int64, budget time.Duration, walRoot string) (*outcome, error) {
	var setups []float64
	var r *rig
	for i := 0; i < setupRepeats(w); i++ {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		// Start each set-up from a collected heap, so that it does not pay
		// for the garbage of the set-ups before it.
		runtime.GC()
		r, d, err = newRig(w, seed, false, filepath.Join(walRoot, fmt.Sprint(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer r.close()

	fixedSubs, readSubs, capBudget := plan(w, budget)
	before := r.snapshot()
	fixed, err := r.windows(fixedPhase, w.rate, w.sub/10, fixedSubs, w.sub, false)
	if err != nil {
		return nil, err
	}
	after := r.snapshot()
	readBack, err := r.windows(fixedPhase+fixedSubs, w.rate, 0, readSubs, w.sub, true)
	if err != nil {
		return nil, err
	}
	capStart := time.Now()
	capacity, probes := r.capacity(fixedPhase+fixedSubs+readSubs, r.meetsSLO(fixed), capBudget)
	capSpent := time.Since(capStart)

	offered, achieved, dropped, errors := fixed.sum()
	rbOffered, rbAchieved, rbDropped, rbErrors := readBack.sum()
	o := &outcome{
		attempted: offered + rbOffered,
		failed:    dropped + errors + rbDropped + rbErrors,
	}
	o.problems = r.check()

	writes, reads := fixed, readBack
	if w.readFrac > 0 {
		reads = fixed
	}
	ops := float64(after.puts + after.gets - before.puts - before.gets)
	o.add("setup_s", "s", median(setups))
	o.add("write_p50_ms", "ms", ms(writes.quantile(writeOps, 0.5)))
	o.add("write_tail_ms", "ms", ms(writes.subMedian(writeOps, w.tail)))
	o.add("read_p50_ms", "ms", ms(reads.quantile(readOps, 0.5)))
	o.add("read_tail_ms", "ms", ms(reads.subMedian(readOps, w.tail)))
	o.add("capacity_ops_s", "1/s", capacity)
	o.add("cpu_us_per_op", "us", perOp(float64(after.cpu-before.cpu)/1e3, ops))
	o.add("served_frac", "ratio", perOp(float64(achieved), float64(offered)))
	o.add("peak_rss_mb", "MiB", peakRSSMiB())

	fmt.Printf("set-up: median %.4fs of %d, range %.4f-%.4fs\n", median(setups), len(setups), slices.Min(setups), slices.Max(setups))
	fmt.Printf("fixed rate %.0f ops/s, %d x %v: offered %d, completed %d, dropped %d, errors %d\n",
		w.rate, fixedSubs, w.sub, offered, achieved, dropped, errors)
	fmt.Printf("sub-window p99s (ms), writes: %s; reads: %s\n", writes.p99s(writeOps), reads.p99s(readOps))
	fmt.Printf("read-back at %.0f ops/s, %d x %v: %d GETs checked against the final state\n", w.rate, readSubs, w.sub, rbAchieved)
	fmt.Printf("capacity search (%v, p99 limit %v): ", capSpent.Round(time.Millisecond), w.slo)
	for _, p := range probes {
		verdict := "FAIL"
		if p.pass {
			verdict = "pass"
		}
		fmt.Printf("%.0f→%s(p99 %.1fms, drop %d, err %d) ", p.rate, verdict, ms(p.p99), p.dropped, p.errors)
	}
	fmt.Println()
	printSuspicions(r, before)
	printMetrics(o)
	return o, nil
}

// runTraced measures the fixed-rate window twice on fresh clusters, first
// untraced and then traced, and reports the per-layer metrics of the
// traced window. The difference between the two is the tracing overhead.
func runTraced(w workload, seed int64, budget time.Duration, walRoot string) (*outcome, error) {
	fixedSubs, readSubs, _ := plan(w, budget)
	plain, _, err := newRig(w, seed, false, filepath.Join(walRoot, "plain"))
	if err != nil {
		return nil, err
	}
	pb := plain.snapshot()
	untraced, err := plain.windows(fixedPhase, w.rate, w.sub/10, fixedSubs, w.sub, false)
	pa := plain.snapshot()
	plain.close()
	if err != nil {
		return nil, err
	}

	r, _, err := newRig(w, seed, true, filepath.Join(walRoot, "traced"))
	if err != nil {
		return nil, err
	}
	defer r.close()
	// The sequence position at the window's start, for counting the
	// checkpoint boundaries the window crosses.
	seq0 := r.cluster.Node(0).Batches()
	for _, n := range r.cluster.Nodes() {
		n.ResetStats()
	}
	before := r.snapshot()
	fixed, err := r.windows(fixedPhase, w.rate, w.sub/10, fixedSubs, w.sub, false)
	if err != nil {
		return nil, err
	}
	after := r.snapshot()
	stages := [2][]splitbft.StageLatency{r.cluster.Node(0).StageLatencies(), r.cluster.Node(1).StageLatencies()}
	readBack, err := r.windows(fixedPhase+fixedSubs, w.rate, 0, readSubs, w.sub, true)
	if err != nil {
		return nil, err
	}
	offered, _, dropped, errors := fixed.sum()
	rbOffered, _, rbDropped, rbErrors := readBack.sum()
	o := &outcome{
		attempted: offered + rbOffered,
		failed:    dropped + errors + rbDropped + rbErrors,
	}
	o.problems = r.check()
	addLayerMetrics(o, w, before, after, seq0, stages)

	path := spanFile(outDir, w.name, seed)
	if err := r.spans.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	spans := r.spans.all()
	invokeP50, selfP50, n := writeSelfTime(spans)
	fmt.Printf("spans: %d written to %s; client.invoke p50 %.1fus over %d PUTs, self time p50 %.1fus outside app.execute\n",
		len(spans), path, us(invokeP50), n, us(selfP50))

	cpuTraced := perOp(float64(after.cpu-before.cpu)/1e3, float64(after.puts+after.gets-before.puts-before.gets))
	cpuPlain := perOp(float64(pa.cpu-pb.cpu)/1e3, float64(pa.puts+pa.gets-pb.puts-pb.gets))
	p50Traced, p50Plain := ms(fixed.quantile(writeOps, 0.5)), ms(untraced.quantile(writeOps, 0.5))
	fmt.Printf("tracing overhead: cpu_us_per_op %+.1f (traced %.1f, untraced %.1f), write_p50_ms %+.3f (traced %.3f, untraced %.3f)\n",
		cpuTraced-cpuPlain, cpuTraced, cpuPlain, p50Traced-p50Plain, p50Traced, p50Plain)
	printSuspicions(r, before)
	printMetrics(o)
	return o, nil
}

// Stage latencies come from the nodes' request tracer. Write stages are
// read on the primary (node 0), which stamps every one of them; read stages
// on a backup (node 1), which answers its share of the leased reads with a
// read-index round. The first stamp of each chain (classify, read-arrive)
// has no predecessor and so no latency, and is left out.
var (
	writeStages = []string{"enqueue", "preprepare", "prepare-cert", "commit", "execute", "reply"}
	readStages  = []string{"read-index", "read-serve"}
)

// roleNames abbreviate the compartments, in EnclaveStats order.
var roleNames = []string{"prep", "conf", "exec"}

func addLayerMetrics(o *outcome, w workload, b, a snap, seq0 uint64, stages [2][]splitbft.StageLatency) {
	ops := float64(a.puts + a.gets - b.puts - b.gets)
	reads := float64(a.gets - b.gets)
	var sigs, sigNs, hits, misses, creates, counterVerifies, macs, leaseVerifies float64
	var suspects, local float64
	ecalls := make([]float64, 3)
	msgs := make([]float64, 3)
	busyNs := make([]float64, 3)
	counter := func(name string) float64 {
		var sum float64
		for i := range a.nodes {
			sum += a.nodes[i].metrics[name] - b.nodes[i].metrics[name]
		}
		return sum
	}
	for i := range a.nodes {
		na, nb := a.nodes[i], b.nodes[i]
		sigs += float64(na.crypto.SigVerifies - nb.crypto.SigVerifies)
		sigNs += float64(na.crypto.SigTime - nb.crypto.SigTime)
		hits += float64(na.cache.Hits - nb.cache.Hits)
		misses += float64(na.cache.Misses - nb.cache.Misses)
		creates += float64(na.crypto.CounterCreates - nb.crypto.CounterCreates)
		counterVerifies += float64(na.crypto.CounterVerifies - nb.crypto.CounterVerifies)
		macs += float64(na.crypto.MACVerifies - nb.crypto.MACVerifies)
		leaseVerifies += float64(na.crypto.LeaseVerifies - nb.crypto.LeaseVerifies)
		suspects += float64(na.suspects - nb.suspects)
		local += float64(na.local - nb.local)
		for j := range na.enclaves {
			ecalls[j] += float64(na.enclaves[j].Count - nb.enclaves[j].Count)
			msgs[j] += float64(na.enclaves[j].Msgs - nb.enclaves[j].Msgs)
			busyNs[j] += float64(na.enclaves[j].Total - nb.enclaves[j].Total)
		}
	}
	o.add("crypto.sig_verifies_per_op", "1/op", perOp(sigs, ops))
	o.add("crypto.sig_verify_us_per_op", "us/op", perOp(sigNs/1e3, ops))
	o.add("crypto.verify_cache_hit_ratio", "ratio", perOp(hits, hits+misses))
	o.add("crypto.counter_creates_per_op", "1/op", perOp(creates, ops))
	o.add("crypto.counter_verifies_per_op", "1/op", perOp(counterVerifies, ops))
	o.add("crypto.mac_verifies_per_op", "1/op", perOp(macs, ops))
	o.add("crypto.lease_verifies_per_kread", "1/kread", perOp(1000*leaseVerifies, reads))
	o.add("runtime.alloc_kb_per_op", "KiB/op", perOp((a.allocB-b.allocB)/1024, ops))
	o.add("runtime.gc_cpu_share", "ratio", perOp(a.gcCPU-b.gcCPU, a.allCPU-b.allCPU))
	var allEcalls float64
	for j, role := range roleNames {
		o.add("tee."+role+".ecalls_per_op", "1/op", perOp(ecalls[j], ops))
		o.add("tee."+role+".msgs_per_ecall", "msgs/ecall", perOp(msgs[j], ecalls[j]))
		o.add("tee."+role+".busy_us_per_op", "us/op", perOp(busyNs[j]/1e3, ops))
		allEcalls += ecalls[j]
	}
	o.add("tee.modeled_us_per_op", "us/op", perOp(allEcalls*float64(splitbft.DefaultCostModel().TransitionCost())/1e3, ops))
	o.add("transport.msgs_per_op", "1/op", perOp(float64(a.msgs-b.msgs), ops))
	o.add("transport.bytes_per_op", "B/op", perOp(float64(a.bytes-b.bytes), ops))
	primary := a.nodes[0]
	o.add("core.ops_per_batch", "ops/batch", perOp(float64(primary.executed-b.nodes[0].executed), float64(primary.batches-b.nodes[0].batches)))
	o.add("core.suspects", "count", suspects)
	o.add("core.view_changes", "count", counter("splitbft_view_changes_total"))
	o.add("client.resends_per_kop", "1/kop", perOp(1000*float64(a.resends-b.resends), ops))
	o.add("core.local_read_ratio", "ratio", perOp(local, reads))
	o.add("core.read_index_rounds_per_kread", "1/kread", perOp(1000*counter("splitbft_read_index_rounds_total"), reads))
	o.add("core.lease_refusals_per_kread", "1/kread", perOp(1000*counter("splitbft_lease_refusals_total"), reads))
	app := a.app.sub(b.app)
	o.add("app.read_us_per_read", "us", perOp(float64(app.readNs)/1e3, float64(app.reads)))
	o.add("app.execute_us_per_op", "us/op", perOp(float64(app.executeNs)/1e3, ops))
	interval := uint64(splitbft.DefaultCheckpointInterval)
	checkpoints := float64((seq0+primary.batches)/interval - seq0/interval)
	perCkpt := checkpoints * float64(w.replicas)
	o.add("app.checkpoints", "count", checkpoints)
	o.add("app.digest_ms_per_checkpoint", "ms", perOp(float64(app.digestNs)/1e6, perCkpt))
	o.add("app.snapshot_ms_per_checkpoint", "ms", perOp(float64(app.snapNs)/1e6, perCkpt))
	appends, fsyncs := counter("splitbft_wal_appends_total"), counter("splitbft_wal_fsyncs_total")
	o.add("store.appends_per_op", "1/op", perOp(appends, ops))
	o.add("store.fsyncs_per_op", "1/op", perOp(fsyncs, ops))
	o.add("store.appends_per_fsync", "ratio", perOp(appends, fsyncs))
	for i, names := range [][]string{writeStages, readStages} {
		byStage := make(map[string]splitbft.StageLatency)
		for _, s := range stages[i] {
			byStage[s.Stage] = s
		}
		for _, name := range names {
			s := byStage[name]
			o.add("core.stage."+name+"_p50_us", "us", us(s.P50))
			o.add("core.stage."+name+"_p99_us", "us", us(s.P99))
		}
	}
}

// printSuspicions reports the failure detector's activity since before, so
// a run with a spurious suspicion storm says so next to its numbers.
func printSuspicions(r *rig, before snap) {
	now := r.snapshot()
	var suspects uint64
	for i := range now.nodes {
		suspects += now.nodes[i].suspects - before.nodes[i].suspects
	}
	fmt.Printf("failure detector: %d suspicions, %d client resends\n", suspects, now.resends-before.resends)
}

func printMetrics(o *outcome) {
	for _, m := range o.metrics {
		fmt.Printf("  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

func perOp(v, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return v / n
}

// median returns the middle element of xs (the upper one of an even
// count), 0 for none.
func median[T int64 | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
