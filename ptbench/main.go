// Command ptbench is the end-to-end and per-layer benchmark of the
// publishing server. It starts serve.Server (and, for cluster-rw,
// cluster.Coordinator) in-process on loopback listeners, drives seeded
// traffic at them in a closed loop, checks every response against a
// reference evaluation, and prints each metric by name, unit and sample
// count. The last line of its output is one JSON object.
//
//	ptbench --workload live-rw --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name  string
	nodes int       // serve nodes; more than one puts a coordinator in front
	dbs   int       // generated databases
	mix   []Publish // publish mix
	watch bool      // a live view watched over SSE on the second connection
}

var workloads = []workload{
	{name: "publish-read", nodes: 1, dbs: 1, mix: readMix},
	{name: "live-rw", nodes: 1, dbs: 1, mix: rwMix, watch: true},
	{name: "cluster-rw", nodes: 3, dbs: 4, mix: rwMix},
}

// e2eKeys and layerKeys are the metrics of the final JSON line with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names. Every
// workload produces each of them.
var e2eKeys = []string{"setup_s", "publish_p50_ms", "publish_rps", "recovery_ms", "heap_peak_mb"}

var layerKeys = []string{
	"parser.spec_ms", "parser.db_ms",
	"serve.pair_ms", "serve.replay_records", "serve.dedup_frac", "serve.shed", "serve.self_ms",
	"pt.run_ms", "pt.memo_hit_frac", "pt.run_cold_ms", "pt.nodes", "pt.queries_run", "pt.subtrees_shared", "pt.expand_self_ms",
	"eval.rule_us_p50", "eval.rule_us_p99", "eval.rule_eval_ms",
	"plan.compile_us", "plan.fallbacks",
	"xmltree.serialize_ms", "xmltree.splice_ms", "xmltree.bytes",
	"incr.rebuild_ms", "wal.replay_ms",
	"trace.self_sum_ms", "trace.overhead_ms",
}

const (
	setupRuns = 5 // setup_s is the median of this many set-ups
	// The measured phase runs in this many segments, each followed by
	// restartsPerSegment restart cycles: recovery_ms and failover_ms are
	// medians over segments × restartsPerSegment samples.
	segments           = 4
	restartsPerSegment = 12
	minP99Samples      = 1000
	hopBudget          = 2 * time.Second
	heapSampleTick     = 2 * time.Millisecond
)

type config struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	specDir  string
	workDir  string
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "publish-read, live-rw or cluster-rw")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 adds the traced layer-by-layer replay and reports per-layer metrics")
		specDir = flag.String("specs", "examples/specs", "directory holding tau1.pt, tau2v.pt and tau3.pt")
		workDir = flag.String("work", ".bench_build/ptbench-work", "scratch directory for WAL segments and span dumps")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, specDir: *specDir, workDir: *workDir}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.workload, found = w, true
		}
	}
	if !found || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ptbench: need --workload publish-read|live-rw|cluster-rw, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptbench: %v\n", err)
		return 1
	}
	res.print(os.Stdout, cfg.trace)
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

type result struct {
	metrics   []metric
	attempted int
	failed    int
	correct   bool
	notes     []string
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the metric table and then the JSON result line.
func (r *result) print(f io.Writer, trace bool) {
	for _, m := range r.metrics {
		fmt.Fprintf(f, "%-28s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	keys := e2eKeys
	if trace {
		keys = layerKeys
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jv{}}
	for _, k := range keys {
		if m, ok := r.get(k); ok {
			out.Metrics[k] = jv{m.value, m.unit}
		}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(f, string(b))
}

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// addLatency reports the median and, when at least minP99Samples back
// it, the 99th percentile of ds.
func (r *result) addLatency(prefix string, ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	r.add(prefix+"_p50_ms", ms(quantile(ds, 0.5)), "ms", len(ds))
	if len(ds) >= minP99Samples {
		r.add(prefix+"_p99_ms", ms(quantile(ds, 0.99)), "ms", len(ds))
	} else {
		r.notes = append(r.notes, fmt.Sprintf("%s_p99_ms not reported: %d samples < %d", prefix, len(ds), minP99Samples))
	}
}

// heapSampler records the peak of the live heap, as the garbage
// collector last marked it. Unlike the allocated heap, which saws
// between collections, it does not depend on when the sample lands.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapSampleTick)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// system is one set-up workload: generated inputs, running nodes, the
// recorder, and the watcher when the workload has one.
type system struct {
	specs map[string]string
	dbs   []*DB
	env   *env
	rec   *recorder
	watch *watcher
}

func genDBs(w workload, seed int64) []*DB {
	dbs := make([]*DB, w.dbs)
	for i := range dbs {
		dbs[i] = GenDB(fmt.Sprintf("db%d", i), seed*1000+int64(i), defaultShape)
	}
	return dbs
}

// setup generates the inputs, loads specs and databases into fresh
// nodes with fresh WALs, warms every (spec, db) pair of the mix with
// one publish and, for live-rw, opens the watch stream.
func setup(cfg config, dir string) (*system, error) {
	w := cfg.workload
	specs, err := loadSpecs(cfg.specDir)
	if err != nil {
		return nil, err
	}
	s := &system{specs: specs, dbs: genDBs(w, cfg.seed)}
	s.rec = newRecorder(s.dbs)
	if s.env, err = newEnv(dir, specs, s.dbs, w.nodes); err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, db := range s.dbs {
		for _, p := range w.mix {
			p.DB = db.Name
			if _, err := s.rec.publish(c, s.env.front, p, false); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if w.watch {
		wc := newClient()
		if s.watch, err = startWatch(wc, s.env.front, "tau1", s.dbs[0].Name, 0); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *system) close() {
	if s.watch != nil {
		s.watch.stop(0)
	}
	s.env.close()
}

func run(cfg config) (*result, error) {
	w := cfg.workload
	root := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res := &result{}

	var setups []time.Duration
	var s *system
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = setup(cfg, filepath.Join(root, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()
	res.add("setup_s", quantile(setups, 0.5).Seconds(), "s", len(setups))

	// The measured phase runs in segments with restart cycles after each,
	// so recovery and failover samples spread over the run like the
	// request samples do, rather than all landing at its end.
	t := newTraffic(w, s.dbs, cfg.seed)
	rec := s.rec
	db0 := s.dbs[0].Name
	var elapsed time.Duration
	var recovery, failover []time.Duration
	var watched []*watcher
	var admitted, deduped, shed int64
	heapPeak := 0.0
	for k := 0; k < segments; k++ {
		base, _ := rec.window(db0)
		if w.watch && s.watch == nil {
			var err error
			if s.watch, err = startWatch(newClient(), s.env.front, "tau1", db0, base); err != nil {
				return nil, err
			}
		}
		// The heap is sampled in the first segment only: a restarted
		// node parses whatever pairs warm hints send it, which is the
		// restart cycles' footprint, not the workload's.
		var heap *heapSampler
		if k == 0 {
			runtime.GC()
			heap = startHeapSampler()
		}
		elapsed += t.run(s.env, rec, time.Duration(cfg.seconds)*time.Second/segments)
		if heap != nil {
			heapPeak = heap.finish()
		}
		if s.watch != nil {
			acked, _ := rec.window(db0)
			s.watch.stop(acked - base)
			if s.watch.err != nil {
				rec.fail("%v", s.watch.err)
			}
			watched = append(watched, s.watch)
			s.watch = nil
		}
		for _, n := range s.env.nodes {
			m := n.srv.Metrics()
			admitted += m.Admitted
			deduped += m.Deduped
			shed += m.Shed
		}
		r, f, err := restarts(s, restartsPerSegment, k*restartsPerSegment)
		if err != nil {
			return nil, err
		}
		recovery, failover = append(recovery, r...), append(failover, f...)
	}
	res.add("heap_peak_mb", heapPeak, "MB", 1)
	res.addLatency("publish", rec.pubLat)
	res.add("publish_rps", float64(len(rec.pubLat))/elapsed.Seconds(), "1/s", len(rec.pubLat))
	for _, spec := range specNames {
		if ds := rec.bySpec[spec]; len(ds) > 0 {
			res.add("publish."+spec+"_p50_ms", ms(quantile(ds, 0.5)), "ms", len(ds))
		}
	}
	res.addLatency("mutate", rec.mutLat)
	if w.watch {
		var lags []time.Duration
		for _, wt := range watched {
			lags = append(lags, wt.lags(rec.sendTimes)...)
		}
		res.addLatency("watch_lag", lags)
	}
	res.add("recovery_ms", ms(quantile(recovery, 0.5)), "ms", len(recovery))
	if len(failover) > 0 {
		res.add("failover_ms", ms(quantile(failover, 0.5)), "ms", len(failover))
	}

	var rp *replay
	if cfg.trace {
		res.add("serve.dedup_frac", float64(deduped)/float64(max(admitted, 1)), "frac", int(admitted))
		res.add("serve.shed", float64(shed), "count", int(admitted))
		if s.env.coord != nil {
			if err := measureHop(s, res); err != nil {
				return nil, err
			}
			cm := s.env.coord.Metrics()
			res.add("cluster.hedges", float64(cm.Hedges), "count", int(cm.Routed))
			res.add("cluster.hedge_wins", float64(cm.HedgeWins), "count", int(cm.Routed))
			res.add("cluster.failovers", float64(cm.Failovers), "count", int(cm.Routed))
			res.add("cluster.deduped", float64(cm.Deduped), "count", int(cm.Routed))
		}
	}
	s.close()
	closed = true

	if cfg.trace {
		var err error
		if rp, err = newReplay(w, s.specs, s.dbs, replayDir(root)); err != nil {
			return nil, err
		}
		dur := time.Duration(cfg.seconds) * time.Second
		if err := rp.run(cfg.seed, dur); err != nil {
			return nil, err
		}
		if err := rp.walReplay(); err != nil {
			return nil, err
		}
		if err := rp.analyze(dur / 2); err != nil {
			return nil, err
		}
		layerMetrics(rp, res, quantile(rec.pubLat, 0.5))
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))
		if err := writeSpans(path, rp.tr.spans); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, fmt.Sprintf("spans written to %s", path))
	}

	// The oracle runs after every server has stopped, outside the timed
	// phase.
	bad, msgs, err := verify(s, rp, w.watch, watched)
	if err != nil {
		return nil, err
	}
	res.attempted = rec.attempted
	res.failed = rec.failed + bad
	res.add("failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), "frac", res.attempted)
	res.correct = res.failed == 0
	res.notes = append(res.notes, rec.errs...)
	res.notes = append(res.notes, msgs...)
	return res, nil
}
