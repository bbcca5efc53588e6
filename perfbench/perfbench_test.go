package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/splitbft/splitbft"
)

// ops lists the first PUT and GET ops each slot would send in phase 1.
func ops(g *gen) [][]byte {
	var out [][]byte
	for slot := 0; slot < slots; slot++ {
		for seq := uint64(0); seq < 64; seq++ {
			t := tag{phase: 1, slot: slot, seq: seq}
			out = append(out, splitbft.EncodePut(g.putKey(t), g.value(t)), splitbft.EncodeGet(g.readKey(1, seq)))
		}
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloads {
		a, b, other := ops(newGen(w, 7)), ops(newGen(w, 7)), ops(newGen(w, 8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 produced two different op sequences", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 produced the same op sequence", w.name)
		}
	}
}

func TestKeysBelongToOneSlot(t *testing.T) {
	for _, w := range workloads {
		g := newGen(w, 3)
		owner := make(map[string]int)
		for slot := 0; slot < slots; slot++ {
			for seq := uint64(0); seq < 500; seq++ {
				k := g.putKey(tag{phase: 1, slot: slot, seq: seq})
				if o, seen := owner[k]; seen && o != slot {
					t.Fatalf("%s: key %s written by slots %d and %d", w.name, k, o, slot)
				}
				owner[k] = slot
			}
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	g := newGen(workloads[2], 1)
	want := tag{phase: maxPhase, slot: slots - 1, seq: 1<<24 - 1}
	got, ok := g.validValue(g.value(want))
	if !ok || got != want {
		t.Fatalf("validValue(value(%v)) = %v, %v", want, got, ok)
	}
	if _, ok := g.validValue([]byte("NOTFOUND")); ok {
		t.Fatal("NOTFOUND parsed as a value")
	}
}

func TestLedgerRejectsBadReads(t *testing.T) {
	w := workloads[0]
	g := newGen(w, 1)
	put := func(l *ledger, tg tag) {
		op := l.put(tg)
		l.done(op, []byte("OK"), nil, false)
	}
	get := func(l *ledger, key string, v []byte, final bool) {
		l.done(splitbft.EncodeGet(key), v, nil, final)
	}
	old, last := tag{phase: 1, slot: 2, seq: 5}, tag{phase: 1, slot: 2, seq: 9}
	key := g.putKey(old)

	l := newLedger(g)
	put(l, old)
	put(l, last)
	get(l, key, g.value(old), false)
	get(l, key, g.value(last), true)
	if p := l.problemList(); len(p) != 0 {
		t.Fatalf("valid reads flagged: %v", p)
	}
	cases := map[string]func(l *ledger){
		"stale final read":   func(l *ledger) { get(l, key, g.value(old), true) },
		"never-issued value": func(l *ledger) { get(l, key, g.value(tag{phase: 1, slot: 2, seq: 7}), false) },
		"value of other key": func(l *ledger) { get(l, g.keys[3], g.value(old), false) },
		"lost write":         func(l *ledger) { get(l, key, []byte("NOTFOUND"), false) },
		"corrupt value":      func(l *ledger) { get(l, key, []byte("garbage-value"), false) },
	}
	for name, bad := range cases {
		l := newLedger(g)
		put(l, old)
		put(l, last)
		bad(l)
		if len(l.problemList()) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}
}

type manifestMetric struct {
	Name, Unit string
}

type manifest struct {
	EndToEnd []manifestMetric        `json:"end_to_end"`
	PerLayer []manifestMetric        `json:"per_layer"`
	Workload []struct{ Name string } `json:"workloads"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestNamesEveryWorkload(t *testing.T) {
	var names []string
	for _, w := range readManifest(t).Workload {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark workloads %v", names, workloadNames())
	}
}

// TestSmokeRuns runs every workload briefly in both modes: each run must
// pass its output check and print exactly the metrics BENCHMARK.json names
// for its mode, with their units.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	m := readManifest(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, x := range m.EndToEnd {
		want[false][x.Name] = x.Unit
	}
	for _, x := range m.PerLayer {
		want[true][x.Name] = x.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := run(w, 5, 4*time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(o.problems) > 0 {
				t.Errorf("%s traced=%v: output check failed: %v", w.name, traced, o.problems)
			}
			got := make(map[string]string)
			for name, x := range o.result().Metrics {
				got[name] = x.Unit
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s traced=%v: printed metrics %v, BENCHMARK.json names %v", w.name, traced, got, want[traced])
			}
			if o.attempted == 0 {
				t.Errorf("%s traced=%v: nothing attempted", w.name, traced)
			}
		}
	}
}
