package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"

	"ptx/internal/incr"
	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
)

// delta turns a mutation into the relational delta the server applies.
func (m Mutation) delta() *relation.Delta {
	d := &relation.Delta{}
	if m.Insert {
		return d.Insert(m.Rel, m.Tuple...)
	}
	return d.Delete(m.Rel, m.Tuple...)
}

// oracle computes the expected publish bytes of (spec, db, k mutations
// applied) with the reference configuration: no query cache and no
// compiled plans, on a shadow instance that replays the same deltas.
type oracle struct {
	trs map[string]*pt.Transducer
	dbs map[string]*DB

	mu   sync.Mutex
	sums map[string][32]byte // spec + instance content → output hash
}

func newOracle(specs map[string]string, dbs []*DB) (*oracle, error) {
	o := &oracle{trs: map[string]*pt.Transducer{}, dbs: map[string]*DB{}, sums: map[string][32]byte{}}
	for name, src := range specs {
		tr, err := parser.ParseTransducer(src)
		if err != nil {
			return nil, err
		}
		o.trs[name] = tr
	}
	for _, db := range dbs {
		o.dbs[db.Name] = db
	}
	return o, nil
}

// instance replays muts onto a fresh parse of db.
func (o *oracle) instance(spec, db string, muts []Mutation) (*relation.Instance, error) {
	inst, err := parser.ParseInstance(o.dbs[db].Src, o.trs[spec].Schema)
	if err != nil {
		return nil, err
	}
	for _, m := range muts {
		if _, err := inst.Apply(m.delta()); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// sum returns the hash of the reference output of spec over inst.
func (o *oracle) sum(spec string, inst *relation.Instance) ([32]byte, error) {
	key := spec + "\x00" + inst.String()
	o.mu.Lock()
	s, ok := o.sums[key]
	o.mu.Unlock()
	if ok {
		return s, nil
	}
	tr := o.trs[spec]
	out, err := tr.Output(inst, pt.Options{Cache: pt.CacheOff, NoPlan: true})
	if err != nil {
		return s, err
	}
	var buf bytes.Buffer
	if err := out.WriteXML(&buf); err != nil {
		return s, err
	}
	s = sha256.Sum256(buf.Bytes())
	o.mu.Lock()
	o.sums[key] = s
	o.mu.Unlock()
	return s, nil
}

type stateKey struct {
	spec, db string
	k        int
}

// check verifies every recorded publish against the reference output of
// some state in its window, logs holding each database's mutations in
// commit order. It runs on two workers and returns the number of
// mismatches and the first few descriptions.
func (o *oracle) check(pubs []pubRec, logs map[string][]Mutation) (int, []string, error) {
	need := map[stateKey]bool{}
	for _, p := range pubs {
		for k := p.lo; k <= p.hi; k++ {
			need[stateKey{p.Spec, p.DB, k}] = true
		}
	}
	want := make(map[stateKey][32]byte, len(need))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan stateKey)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				inst, err := o.instance(k.spec, k.db, logs[k.db][:k.k])
				var s [32]byte
				if err == nil {
					s, err = o.sum(k.spec, inst)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				want[k] = s
				mu.Unlock()
			}
		}()
	}
	for k := range need {
		next <- k
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return 0, nil, firstErr
	}
	bad := 0
	var msgs []string
	for _, p := range pubs {
		ok := false
		for k := p.lo; k <= p.hi && !ok; k++ {
			ok = want[stateKey{p.Spec, p.DB, k}] == p.sum
		}
		if !ok {
			bad++
			if len(msgs) < 5 {
				msgs = append(msgs, fmt.Sprintf("publish %s/%s after %d..%d mutations: bytes differ from the reference output", p.Spec, p.DB, p.lo, p.hi))
			}
		}
	}
	return bad, msgs, nil
}

// checkView replays the watched database's mutations through a shadow
// incr.View built like the server's, compares each report with the
// change event the watchers received, and compares the final snapshot
// with the reference output. Each watcher watched a view built after
// its segment's base mutations, so versions are compared relative to it.
func (o *oracle) checkView(spec, db string, muts []Mutation, feed []*watcher, maxNodes int) (int, []string, error) {
	inst, err := o.instance(spec, db, nil)
	if err != nil {
		return 0, nil, err
	}
	v, err := incr.NewView(context.Background(), o.trs[spec], inst.Clone(), incr.Options{Run: pt.Options{MaxNodes: maxNodes}})
	if err != nil {
		return 0, nil, err
	}
	bad := 0
	var msgs []string
	miss := func(format string, args ...any) {
		bad++
		if len(msgs) < 5 {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}
	events := 0
	for _, w := range feed {
		events += len(w.reports)
	}
	if events != len(muts) {
		miss("watchers received %d change events for %d mutations", events, len(muts))
	}
	seg := 0
	for i, m := range muts {
		rep, err := v.Apply(context.Background(), m.delta())
		if err != nil {
			return 0, nil, err
		}
		if _, err := inst.Apply(m.delta()); err != nil {
			return 0, nil, err
		}
		for seg+1 < len(feed) && feed[seg+1].base <= i {
			seg++
		}
		if seg >= len(feed) || i-feed[seg].base >= len(feed[seg].reports) {
			continue
		}
		g, version := feed[seg].reports[i-feed[seg].base], uint64(i-feed[seg].base+2)
		if g.Version != version || g.Delta != rep.Delta || g.Effective != rep.Effective || g.Nodes != rep.Nodes {
			miss("change event for mutation %d: got version %d delta %s nodes %d, want %d %s %d", i, g.Version, g.Delta, g.Nodes, version, rep.Delta, rep.Nodes)
		}
	}
	snap, _, err := v.Snapshot(false)
	if err != nil {
		return 0, nil, err
	}
	want, err := o.sum(spec, inst)
	if err != nil {
		return 0, nil, err
	}
	if sha256.Sum256(snap) != want {
		miss("final live-view snapshot differs from the reference output")
	}
	return bad, msgs, nil
}
