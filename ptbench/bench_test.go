package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func ops(seed int64) ([]Publish, []Mutation) {
	db := GenDB("db0", seed, defaultShape)
	pubs, muts := NewPublisher(seed, readMix), NewMutator(db, seed)
	var ps []Publish
	var ms []Mutation
	for i := 0; i < 60; i++ {
		ps = append(ps, pubs.Next("db0"))
		ms = append(ms, muts.Next())
	}
	return ps, ms
}

func TestGeneratorIsSeeded(t *testing.T) {
	if GenDB("db0", 7, defaultShape).Src != GenDB("db0", 7, defaultShape).Src {
		t.Fatal("the same seed generated two different databases")
	}
	if GenDB("db0", 7, defaultShape).Src == GenDB("db0", 8, defaultShape).Src {
		t.Fatal("different seeds generated the same database")
	}
	p1, m1 := ops(7)
	p2, m2 := ops(7)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(m1, m2) {
		t.Fatal("the same seed generated two different operation sequences")
	}
	p3, m3 := ops(8)
	if reflect.DeepEqual(p1, p3) || reflect.DeepEqual(m1, m3) {
		t.Fatal("different seeds generated the same operation sequence")
	}
}

func TestMutationsRestoreTheDatabase(t *testing.T) {
	db := GenDB("db0", 3, defaultShape)
	m := NewMutator(db, 3)
	for i := 0; i < 40; i += 2 {
		ins, del := m.Next(), m.Next()
		if !ins.Insert || del.Insert || !reflect.DeepEqual(ins.Tuple, del.Tuple) || ins.Rel != del.Rel {
			t.Fatalf("mutations %d, %d: %+v then %+v, want an insert and the delete of the same tuple", i, i+1, ins, del)
		}
		if ins.Rel == "prereq" && db.prereqs[[2]string{ins.Tuple[0], ins.Tuple[1]}] {
			t.Fatalf("mutation %d inserts prereq %v, which the database already holds", i, ins.Tuple)
		}
	}
}

func TestPublisherKeepsTheMix(t *testing.T) {
	p := NewPublisher(5, rwMix)
	count := map[string]int{}
	for i := 0; i < 3*len(rwMix); i++ {
		count[p.Next("db0").Spec]++
	}
	if count["tau1"] != 6 || count["tau3"] != 3 {
		t.Fatalf("three blocks of the read-after-write mix published %v, want tau1 6 and tau3 3", count)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "serve.publish", Start: 0, End: 100, Parent: -1},
		{Name: "serve.pair", Start: 10, End: 20, Parent: 0},
		{Name: "pt.run", Start: 20, End: 90, Parent: 0},
		{Name: "eval.rule", Start: 30, End: 50, Parent: 2},
	}
	got := selfTimes(spans)
	want := []time.Duration{20, 10, 50, 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	layers, ops := layerSelf(spans, "serve.publish")
	if ops != 1 || layers["serve"] != 30 || layers["pt"] != 50 || layers["eval"] != 20 {
		t.Fatalf("layer self times %v over %d ops, want serve 30, pt 50, eval 20 over 1", layers, ops)
	}
}

func TestOracleRejectsWrongBytes(t *testing.T) {
	specs, err := loadSpecs("../examples/specs")
	if err != nil {
		t.Fatal(err)
	}
	db := GenDB("db0", 1, defaultShape)
	o, err := newOracle(specs, []*DB{db})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutator(db, 1).Next()
	logs := map[string][]Mutation{"db0": {m}}
	inst, err := o.instance("tau1", "db0", logs["db0"])
	if err != nil {
		t.Fatal(err)
	}
	good, err := o.sum("tau1", inst)
	if err != nil {
		t.Fatal(err)
	}
	pubs := []pubRec{
		{Publish: Publish{Spec: "tau1", DB: "db0"}, lo: 0, hi: 1, sum: good},
		{Publish: Publish{Spec: "tau1", DB: "db0"}, lo: 0, hi: 0, sum: good},
	}
	bad, msgs, err := o.check(pubs, logs)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 || len(msgs) != 1 {
		t.Fatalf("oracle reported %d mismatches (%v), want exactly the publish whose window excludes the mutation", bad, msgs)
	}
}

type benchFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

// TestShortRunReportsEveryMetric runs each workload briefly with the
// traced replay and checks that every metric BENCHMARK.json names, and
// every end-to-end metric the workload has, is reported with its unit
// and a sample count, and that the run is correct.
func TestShortRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, ptbench runs %v", names, have)
	}
	units := map[string]string{}
	var e2e, layers []string
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
		layers = append(layers, m.Name)
	}
	if !reflect.DeepEqual(e2e, e2eKeys) || !reflect.DeepEqual(layers, layerKeys) {
		t.Fatalf("BENCHMARK.json metrics differ from the ones ptbench prints:\n%v\n%v\n%v\n%v", e2e, e2eKeys, layers, layerKeys)
	}
	extra := map[string][]string{
		"publish-read": {"failed_frac"},
		"live-rw":      {"mutate_p50_ms", "watch_lag_p50_ms", "failed_frac", "incr.apply_ms_p50", "incr.full_rebuild_frac", "incr.queries_per_delta", "wal.append_us_p50", "wal.fsyncs_per_mutate"},
		"cluster-rw":   {"mutate_p50_ms", "failover_ms", "failed_frac", "cluster.hop_ms", "cluster.hedges", "cluster.hedge_wins", "cluster.failovers", "cluster.deduped", "wal.append_us_p50"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(config{workload: w, seed: 1, seconds: 1, trace: true, specDir: "../examples/specs", workDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.attempted == 0 {
				t.Fatalf("run not correct: %d of %d failed: %v", res.failed, res.attempted, res.notes)
			}
			for _, name := range append(append(append([]string(nil), e2eKeys...), layerKeys...), extra[w.name]...) {
				m, ok := res.get(name)
				if !ok {
					t.Errorf("metric %s not reported", name)
					continue
				}
				if want, named := units[name]; m.unit == "" || (named && m.unit != want) {
					t.Errorf("metric %s has unit %q, want %q", name, m.unit, want)
				}
				if m.n < 1 {
					t.Errorf("metric %s has sample count %d", name, m.n)
				}
			}
		})
	}
}
