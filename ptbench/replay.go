package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"time"

	"ptx/internal/eval"
	"ptx/internal/incr"
	"ptx/internal/parser"
	"ptx/internal/plan"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/serve"
	"ptx/internal/wal"
	"ptx/internal/xmltree"
)

// publishOptions mirrors what the server's request validation builds
// for p: the query cache with the default node budget and timeout, or
// the subtree cache with no node budget.
func publishOptions(p Publish) pt.Options {
	limits := runctl.Limits{Timeout: 10 * time.Second, MaxNodes: 1_000_000}
	cache := pt.CacheQueries
	if p.Subtree {
		limits.MaxNodes = 0
		cache = pt.CacheSubtrees
	}
	return pt.Options{Limits: &limits, Cache: cache}
}

// sample is one database state a publish ran against, kept for the
// analysis pass.
type sample struct {
	p    Publish
	tr   *pt.Transducer
	inst *relation.Instance
	xi   *xmltree.Tree
}

const (
	// maxSamples bounds the states the analysis pass visits.
	maxSamples = 32
	// setupRounds is how often the replay times parsing and plan
	// compilation; those metrics are per-round means.
	setupRounds = 5
)

// replay drives the workload's seeded operations through each layer's
// public Go functions on one goroutine, the way the server's handlers
// call them, with a span around every call. Each step is traced or not
// in turn, so untraced timings of the same code give the tracing
// overhead.
type replay struct {
	w   workload
	dbs []*DB
	tr  *tracer
	ctx context.Context

	reg    *serve.Registry
	log    *wal.Log
	walDir string
	view   *incr.View // tau1 over the first database, live-rw only

	logs     map[string][]Mutation
	pubs     []pubRec
	lastInst map[string]*relation.Instance

	pubTraced, pubUntraced map[string][]time.Duration // by spec
	hits, misses           int64
	replayed               int // delta records replayed by Pair, over all publishes
	fallbacks              int // rule queries plan.Compile rejects
	outBytes               []int
	reports                []*incr.Report
	walMetrics             wal.Metrics
	samples                []sample
	cold                   []pt.Stats
}

func newReplay(w workload, specs map[string]string, dbs []*DB, dir string) (*replay, error) {
	r := &replay{w: w, dbs: dbs, tr: newTracer(), ctx: context.Background(),
		reg: serve.NewRegistry(), walDir: dir, logs: map[string][]Mutation{}, lastInst: map[string]*relation.Instance{},
		pubTraced: map[string][]time.Duration{}, pubUntraced: map[string][]time.Duration{}}
	r.tr.on, r.tr.op = true, -1
	for _, name := range specNames {
		if err := r.reg.RegisterSpec(name, specs[name]); err != nil {
			return nil, err
		}
	}
	for _, db := range dbs {
		if err := r.reg.RegisterDB(db.Name, db.Src); err != nil {
			return nil, err
		}
	}
	tau1, err := r.reg.Spec("tau1")
	if err != nil {
		return nil, err
	}
	for round := 0; round < setupRounds; round++ {
		for _, name := range specNames {
			sp := r.tr.begin("parser.spec")
			tr, err := parser.ParseTransducer(specs[name])
			r.tr.end(sp)
			if err != nil {
				return nil, err
			}
			for _, rule := range tr.Rules() {
				for _, item := range rule.Items {
					sp := r.tr.begin("plan.compile")
					_, err := plan.Compile(item.Query)
					r.tr.end(sp)
					if err != nil && round == 0 {
						r.fallbacks++
					}
				}
			}
		}
		for _, db := range dbs {
			sp := r.tr.begin("parser.db")
			_, err := parser.ParseInstance(db.Src, tau1.Schema)
			r.tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	if r.log, err = wal.Open(dir, wal.Options{}); err != nil {
		return nil, err
	}
	if w.watch {
		_, inst, _, err := r.reg.Pair("tau1", dbs[0].Name)
		if err != nil {
			return nil, err
		}
		if r.view, err = incr.NewView(r.ctx, tau1, inst.Clone(), incr.Options{Run: pt.Options{MaxNodes: 1_000_000}}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// publish replays one publish: Registry.Pair, the run, serialization.
func (r *replay) publish(p Publish) error {
	start := time.Now()
	root := r.tr.begin("serve.publish")
	sp := r.tr.begin("serve.pair")
	tr, inst, memo, err := r.reg.Pair(p.Spec, p.DB)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	h0, m0, _ := memo.Stats()
	opts := publishOptions(p)
	opts.Memo = memo
	sp = r.tr.begin("pt.run")
	res, err := tr.RunContext(r.ctx, inst, opts)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sp = r.tr.begin("xmltree.serialize")
	err = res.Xi.WriteXMLVirtual(&buf, tr.Virtual)
	r.tr.end(sp)
	r.tr.end(root)
	took := time.Since(start)
	if err != nil {
		return err
	}
	if r.tr.on {
		r.pubTraced[p.Spec] = append(r.pubTraced[p.Spec], took)
	} else {
		r.pubUntraced[p.Spec] = append(r.pubUntraced[p.Spec], took)
	}
	h1, m1, _ := memo.Stats()
	r.hits += h1 - h0
	r.misses += m1 - m0
	r.outBytes = append(r.outBytes, buf.Len())
	k := len(r.logs[p.DB])
	r.pubs = append(r.pubs, pubRec{Publish: p, lo: k, hi: k, sum: sha256.Sum256(buf.Bytes())})
	key := p.Spec + "\x00" + p.DB
	if r.lastInst[key] != inst {
		r.lastInst[key] = inst
		r.replayed += len(r.reg.DeltaRecords(p.DB))
		if len(r.samples) < maxSamples {
			r.samples = append(r.samples, sample{p: p, tr: tr, inst: inst, xi: res.Xi})
		}
	}
	return nil
}

// mutate replays one mutation the way the server commits it: the WAL
// append and fsync, the registry commit, the live-view repair.
func (r *replay) mutate(m Mutation) error {
	d := m.delta()
	seq := r.reg.Seq(m.DB) + 1
	root := r.tr.begin("serve.mutate")
	sp := r.tr.begin("wal.append")
	err := r.log.Append(wal.Record{DB: m.DB, Seq: seq, Delta: d})
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("serve.commit")
	_, got, err := r.reg.MutateDB(m.DB, d, 0)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if got != seq {
		return fmt.Errorf("replay: mutation committed at seq %d, want %d", got, seq)
	}
	var rep *incr.Report
	if r.view != nil && m.DB == r.dbs[0].Name {
		sp = r.tr.begin("incr.apply")
		rep, err = r.view.Apply(r.ctx, d)
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	r.tr.end(root)
	r.logs[m.DB] = append(r.logs[m.DB], m)
	if rep != nil {
		r.reports = append(r.reports, rep)
	}
	return nil
}

// run replays the workload's seeded operation streams, in the order the
// closed loop interleaves them, until dur elapses.
func (r *replay) run(seed int64, dur time.Duration) error {
	t := newTraffic(r.w, r.dbs, seed)
	var step func() error
	switch r.w.name {
	case "publish-read":
		turn := 0
		step = func() error {
			turn++
			return r.publish(t.read[turn%2^1].Next(t.db0))
		}
	case "live-rw":
		step = func() error {
			if err := r.mutate(t.muts.Next()); err != nil {
				return err
			}
			return r.publish(t.pubs.Next(t.db0))
		}
	case "cluster-rw":
		step = func() error {
			m := t.next()
			if err := r.mutate(m); err != nil {
				return err
			}
			return r.publish(t.pubs.Next(m.DB))
		}
	}
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		r.tr.on = i%2 == 0
		r.tr.op = i
		if err := step(); err != nil {
			return err
		}
	}
	r.tr.on, r.tr.op = true, -1
	return nil
}

// analyze visits the sampled states until dur elapses (each at least
// once): a cold run with a fresh memo, every distinct configuration of
// the resulting tree re-expanded with no memo (one span per rule
// evaluation), the virtual splice, and a subtree-cached tau1 rebuild.
// The specs share one schema, so tau1 runs on any sampled instance.
func (r *replay) analyze(dur time.Duration) error {
	tau1, _ := r.reg.Spec("tau1")
	deadline := time.Now().Add(dur)
	rules := 0
	for i := 0; i < len(r.samples) || (rules > 0 && rules < minP99Samples) || time.Now().Before(deadline); i++ {
		s := r.samples[i%len(r.samples)]
		opts := publishOptions(s.p)
		opts.Memo = eval.NewMemo(0)
		sp := r.tr.begin("pt.run_cold")
		res, err := s.tr.RunContext(r.ctx, s.inst, opts)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		r.cold = append(r.cold, res.Stats)
		env, cfgs := eval.NewEnv(s.inst), configs(s.tr, res.Xi)
		all := r.tr.begin("eval.rules")
		for _, c := range cfgs {
			sp := r.tr.begin("eval.rule")
			_, _, err := s.tr.ExpandConfig(c.state, c.tag, c.reg, env, nil)
			r.tr.end(sp)
			if err != nil {
				return err
			}
			rules++
		}
		r.tr.end(all)
		sp = r.tr.begin("xmltree.splice")
		_ = s.xi.Publish(s.tr.Virtual)
		r.tr.end(sp)
		sp = r.tr.begin("incr.rebuild")
		_, err = tau1.RunContext(r.ctx, s.inst, pt.Options{Cache: pt.CacheSubtrees})
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// walReplay times reopening the replay's WAL and attaching it to a
// fresh registry, the recovery path minus the first publish.
func (r *replay) walReplay() error {
	r.walMetrics = r.log.Metrics()
	if err := r.log.Close(); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		reg := serve.NewRegistry()
		for _, db := range r.dbs {
			if err := reg.RegisterDB(db.Name, db.Src); err != nil {
				return err
			}
		}
		sp := r.tr.begin("wal.replay")
		l, err := wal.Open(r.walDir, wal.Options{})
		if err == nil {
			reg.AttachWAL(l)
		}
		r.tr.end(sp)
		if err != nil {
			return err
		}
		if err := l.Close(); err != nil {
			return err
		}
	}
	return nil
}

func replayDir(root string) string { return filepath.Join(root, "replay-wal") }

type ruleConfig struct {
	state, tag string
	reg        *relation.Relation
}

// configs returns the distinct configurations of xi whose rule has
// items. The finished tree no longer carries states, so each node's
// state is recovered from the item of its parent's rule that produced
// its tag (the specs have no rule with two items of one tag).
func configs(tr *pt.Transducer, xi *xmltree.Tree) []ruleConfig {
	var out []ruleConfig
	seen := map[string]bool{}
	var walk func(n *xmltree.Node, state string)
	walk = func(n *xmltree.Node, state string) {
		key := pt.ConfigKey(state, n.Tag, n.Reg)
		if seen[key] {
			return
		}
		seen[key] = true
		rule, ok := tr.Rule(state, n.Tag)
		if !ok || len(rule.Items) == 0 {
			return
		}
		out = append(out, ruleConfig{state, n.Tag, n.Reg})
		for _, c := range n.Children {
			for _, it := range rule.Items {
				if it.Tag == c.Tag {
					walk(c, it.State)
					break
				}
			}
		}
	}
	walk(xi.Root, tr.Start)
	return out
}
