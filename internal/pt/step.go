package pt

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/xmltree"
)

// StepRun is an explicit-frontier, one-configuration-per-step execution
// of the τ-transformation, and the only tree traversal in this package:
// RunContext drives the same stepper to empty. The paper's determinism
// argument (Proposition 1(1)) makes the frontier of pending (state,
// tag, register) configurations a complete, restartable description of
// everything left to do, so a snapshot of (partial tree, frontier)
// taken between steps resumes to the exact tree an uninterrupted run
// would build.
//
// The step discipline is LIFO (document-order DFS), which keeps
// ancestor sets shareable between siblings and makes the operation
// numbering deterministic — "interrupt at the k-th step" names the same
// cut point on every run. A stepwise run (NewStepRun, RestoreStepRun)
// is serial and caps the cache mode at CacheQueries: subtree sharing
// attaches whole subtrees in one step and parallel workers drain
// subtrees on frontiers of their own, so neither has a stable per-step
// numbering or a frontier that describes all remaining work. RunContext
// adds both on top of the same step; the OUTPUT is identical either way
// (the determinism invariant the cache-equivalence suite pins).
type StepRun struct {
	r *runner

	root     *xmltree.Node
	frontier []stepPending
	observe  func(StepEvent)

	ops int64
	// count holds the logical counters (Nodes, QueriesRun, StopsApplied,
	// MaxDepth, NodesShared); StatsSoFar adds the cache counters.
	count Stats
}

// stepPending is one frontier entry: an unexpanded node, the set of its
// proper-ancestor configuration keys, and its depth. own reports that
// this entry is the map's sole referent and may extend it in place
// (copy-on-write keeps sibling subtrees independent). The remaining
// fields appear only in RunContext: dp is the summary accumulator the
// node's subtree reports into (CacheSubtrees), join/idx mark the child
// of a fan-out that may be forked onto a worker, and fin makes the
// entry a finish entry rather than a configuration.
type stepPending struct {
	node  *xmltree.Node
	anc   map[string]bool
	own   bool
	depth int

	dp   *subdeps
	join *join
	idx  int
	fin  *finish
}

// finish completes an expanded node once every entry above it on the
// frontier — its whole subtree — is done: it joins the node's forked
// children, then caches the subtree and folds its summary into the
// parent's accumulator.
type finish struct {
	node   *xmltree.Node
	key    string
	cd, dp *subdeps
	join   *join
}

// join collects the children of one fan-out node. Forked children
// record their private frontiers in subs (nil for children drained
// inline) and their errors in errs; deps holds one summary accumulator
// per child in CacheSubtrees mode, merged in child order.
type join struct {
	wg   sync.WaitGroup
	errs []error
	subs []*StepRun
	deps []*subdeps
}

// PendingConfig is the serializable view of one frontier entry, exposed
// for checkpointing. Node points into the partial tree returned by
// Tree(); Ancestors holds the ancestor configuration keys sorted.
type PendingConfig struct {
	Node      *xmltree.Node
	Ancestors []string
	Depth     int
}

// NewStepRun starts a stepwise run of the τ-transformation on inst.
// Budgets and fault plans in opts apply exactly as in RunContext (the
// wall-clock deadline starts now); Options.Cache above CacheQueries is
// capped at CacheQueries and Options.Workers is ignored. Callers must
// Close the run to release its timeout resources.
func (t *Transducer) NewStepRun(ctx context.Context, inst *relation.Instance, opts Options) (*StepRun, error) {
	return t.start(ctx, inst, opts, true)
}

// start validates t and sets up a run from the root configuration.
func (t *Transducer) start(ctx context.Context, inst *relation.Instance, opts Options, stepwise bool) (*StepRun, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	root := &xmltree.Node{Tag: t.RootTag, State: t.Start, Reg: relation.New(0)}
	pending := []PendingConfig{{Node: root, Depth: 1}}
	return newStepRun(t.newRunner(ctx, inst, opts, stepwise), root, pending, Stats{Nodes: 1}), nil
}

// RestoreStepRun reconstructs a stepwise run from a checkpoint: the
// partial tree rooted at root, the frontier as captured by Pending()
// (in the same order), and the counter values captured by StatsSoFar.
// Budgets in opts are FRESH for this attempt — a resumed run gets its
// full node/query/time budget again, which is what lets a sequence of
// budget-bounded attempts complete a tree no single budget allows.
// The pending nodes must belong to root's tree; the supervise layer's
// snapshot decoder enforces that for untrusted checkpoints.
func (t *Transducer) RestoreStepRun(ctx context.Context, inst *relation.Instance, opts Options, root *xmltree.Node, pending []PendingConfig, prior Stats) (*StepRun, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("pt: restore: nil root")
	}
	for i, p := range pending {
		switch {
		case p.Node == nil:
			return nil, fmt.Errorf("pt: restore: pending[%d] has nil node", i)
		case p.Node.State == "":
			return nil, fmt.Errorf("pt: restore: pending[%d] (%s) already finalized", i, p.Node.Tag)
		case p.Node.Reg == nil:
			return nil, fmt.Errorf("pt: restore: pending[%d] (%s,%s) has no register", i, p.Node.State, p.Node.Tag)
		case p.Depth < 1:
			return nil, fmt.Errorf("pt: restore: pending[%d] depth %d < 1", i, p.Depth)
		}
	}
	return newStepRun(t.newRunner(ctx, inst, opts, true), root, pending, prior), nil
}

func newStepRun(r *runner, root *xmltree.Node, pending []PendingConfig, prior Stats) *StepRun {
	s := &StepRun{r: r, root: root, count: Stats{
		Nodes:        prior.Nodes,
		QueriesRun:   prior.QueriesRun,
		StopsApplied: prior.StopsApplied,
		MaxDepth:     prior.MaxDepth,
	}}
	// In CacheSubtrees mode the root summary accumulates the whole run.
	var dp *subdeps
	if r.subtrees != nil {
		dp = &subdeps{}
	}
	s.frontier = make([]stepPending, len(pending))
	for i, p := range pending {
		anc := make(map[string]bool, len(p.Ancestors))
		for _, k := range p.Ancestors {
			anc[k] = true
		}
		s.frontier[i] = stepPending{node: p.Node, anc: anc, own: true, depth: p.Depth, dp: dp}
	}
	return s
}

// Close releases the run's timeout resources. It is safe to call more
// than once and must be called even after a completed or failed run.
func (s *StepRun) Close() { s.r.cancel() }

// Done reports whether the frontier is empty (the transformation is
// complete and Result may be called).
func (s *StepRun) Done() bool { return len(s.frontier) == 0 }

// Ops returns the number of successfully completed steps of this runner
// (a resumed runner starts again at zero).
func (s *StepRun) Ops() int64 { return s.ops }

// Pending returns the serializable frontier, bottom of the stack first;
// feeding it back to RestoreStepRun in this order reproduces the step
// sequence exactly. A stepwise run never carries finish entries, so
// every entry is a pending configuration.
func (s *StepRun) Pending() []PendingConfig {
	out := make([]PendingConfig, len(s.frontier))
	for i, p := range s.frontier {
		keys := make([]string, 0, len(p.anc))
		for k := range p.anc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out[i] = PendingConfig{Node: p.node, Ancestors: keys, Depth: p.depth}
	}
	return out
}

// Tree returns the partial (or, once Done, final) register-carrying
// tree ξ. Frontier nodes still carry their State.
func (s *StepRun) Tree() *xmltree.Tree { return &xmltree.Tree{Root: s.root} }

// StatsSoFar returns the counters accumulated so far (including any
// prior counters a restore carried in). Unlike Result it is valid
// mid-run, which is what checkpoints record.
func (s *StepRun) StatsSoFar() Stats {
	stats := s.count
	stats.CacheMode = s.r.mode
	if s.r.memo != nil {
		h, m, e := s.r.memo.Stats()
		stats.CacheHits = int(h)
		stats.CacheMisses = int(m)
		stats.CacheEvictions = int(e)
	}
	if c := s.r.subtrees; c != nil {
		stats.SubtreesShared = int(c.hits.Load())
		stats.CacheEvictions += int(c.evictions.Load())
	}
	return stats
}

// Result returns the final tree and statistics; it errors if the
// frontier is not empty.
func (s *StepRun) Result() (*Result, error) {
	if !s.Done() {
		return nil, fmt.Errorf("pt: step run incomplete: %d configurations pending", len(s.frontier))
	}
	return &Result{Xi: s.Tree(), Stats: s.StatsSoFar()}, nil
}

// Run drives the frontier to empty and returns the result; it builds
// the same tree as RunContext.
func (s *StepRun) Run() (*Result, error) {
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.Result()
}

// StepEvent describes one COMMITTED step: the node it finalized or
// expanded, the state it carried before finalization cleared it, its
// depth, and whether the ancestor stop condition fired. Incremental
// repair (internal/incr) records these to know each live node's
// configuration after the run erased State from the tree.
type StepEvent struct {
	Node    *xmltree.Node
	State   string
	Depth   int
	Stopped bool
}

// Observe registers f to be called after every committed step; failed
// steps emit nothing, preserving the atomic-step invariant. f runs on
// the stepping goroutine and must not mutate the tree.
func (s *StepRun) Observe(f func(StepEvent)) { s.observe = f }

// Step performs one operation: it takes the top frontier configuration
// and either finalizes it (text leaf, ancestor stop, empty or missing
// rule, all-empty forests) or evaluates its rule queries and pushes its
// children. Steps are ATOMIC with respect to the run state: a failed
// step — cancellation, budget, injected fault, query error, contained
// panic — leaves the configuration on the frontier and the tree
// untouched, so (tree, frontier) always describes exactly the remaining
// work. This is the invariant checkpoints rely on. done reports whether
// the frontier is empty after the step; errors are runctl-typed as in
// RunContext.
func (s *StepRun) Step() (done bool, err error) {
	defer runctl.Recover(&err, "pt.Step")
	if len(s.frontier) == 0 {
		return true, nil
	}
	if err := s.step(); err != nil {
		return false, err
	}
	return len(s.frontier) == 0, nil
}

func (s *StepRun) step() error {
	p := s.frontier[len(s.frontier)-1]
	if p.fin != nil {
		if err := s.finish(p.fin); err != nil {
			return err
		}
		s.frontier = s.frontier[:len(s.frontier)-1]
		return nil
	}
	r := s.r
	if err := r.ctl.Canceled(); err != nil {
		return err
	}
	if err := r.ctl.Depth(p.depth); err != nil {
		return err
	}
	n := p.node
	state := n.State

	// commit pops the configuration and records the completed step.
	commit := func(height int, stopped bool) {
		n.State = ""
		s.frontier = s.frontier[:len(s.frontier)-1]
		s.ops++
		s.count.MaxDepth = max(s.count.MaxDepth, p.depth+height-1)
		if s.observe != nil {
			s.observe(StepEvent{Node: n, State: state, Depth: p.depth, Stopped: stopped})
		}
	}

	if n.Tag == xmltree.TextTag {
		n.Text = xmltree.TextOfRegister(n.Reg)
		p.dp.addLeaf("")
		commit(1, false)
		return nil
	}
	key := ConfigKey(n.State, n.Tag, n.Reg)
	if p.anc[key] {
		s.count.StopsApplied++
		p.dp.addStop(key)
		commit(1, true)
		return nil
	}
	// Subtree sharing: a configuration expanded before whose recorded
	// stop-condition dependencies resolve identically under this
	// ancestor set is attached by reference in one step. Determinism
	// (Proposition 1) makes the unfolding exactly the subtree expansion
	// would build.
	if r.subtrees != nil {
		if e, ok := r.subtrees.lookup(key, p.anc); ok {
			n.Children = e.children
			s.count.StopsApplied += e.stops
			s.count.Nodes += e.size - 1
			s.count.NodesShared += e.size - 1
			p.dp.addEntry(e)
			commit(e.height, false)
			return nil
		}
	}

	specs, queries, err := r.t.ruleStep(n.State, n.Tag, n.Reg, r.base, r.memo, r.ctl)
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		// Missing or empty rule, or all forests empty: finalize.
		s.count.QueriesRun += queries
		p.dp.addLeaf(key)
		commit(1, false)
		return nil
	}
	if err := r.ctl.AddNodes(len(specs)); err != nil {
		return err
	}

	// The step commits: materialize the children and replace this
	// configuration with theirs.
	children := make([]*xmltree.Node, len(specs))
	for i, sp := range specs {
		children[i] = &xmltree.Node{Tag: sp.Tag, State: sp.State, Reg: sp.Reg}
	}
	n.Children = children
	s.count.Nodes += len(children)
	s.count.QueriesRun += queries
	commit(1, false)

	// cd accumulates the children's subtree summaries (CacheSubtrees);
	// the finish entry below them promotes it to this node's summary.
	var cd *subdeps
	if p.dp != nil {
		cd = &subdeps{}
	}
	if len(children) == 1 {
		// Single-child chain: extend the ancestor set in place when owned
		// (the depth-d chains of Proposition 1(4) then cost O(d) total
		// instead of O(d²) map copying).
		anc := p.anc
		if !p.own {
			anc = make(map[string]bool, len(p.anc)+1)
			for k := range p.anc {
				anc[k] = true
			}
		}
		anc[key] = true
		if cd != nil {
			s.frontier = append(s.frontier, stepPending{fin: &finish{node: n, key: key, cd: cd, dp: p.dp}})
		}
		s.frontier = append(s.frontier, stepPending{node: children[0], anc: anc, own: true, depth: p.depth + 1, dp: cd})
		return nil
	}
	// Branching step: one extended copy of the ancestor set, shared
	// read-only by all children.
	childAnc := make(map[string]bool, len(p.anc)+1)
	for k := range p.anc {
		childAnc[k] = true
	}
	childAnc[key] = true
	var j *join
	if r.sem != nil {
		j = &join{errs: make([]error, len(children)), subs: make([]*StepRun, len(children))}
		if cd != nil {
			j.deps = make([]*subdeps, len(children))
			for i := range j.deps {
				j.deps[i] = &subdeps{}
			}
		}
	}
	if cd != nil || j != nil {
		s.frontier = append(s.frontier, stepPending{fin: &finish{node: n, key: key, cd: cd, dp: p.dp, join: j}})
	}
	for i := len(children) - 1; i >= 0; i-- {
		c := stepPending{node: children[i], anc: childAnc, depth: p.depth + 1, dp: cd}
		if j != nil {
			c.join, c.idx = j, i
			if j.deps != nil {
				c.dp = j.deps[i]
			}
		}
		s.frontier = append(s.frontier, c)
	}
	return nil
}

// finish runs a finish entry: it waits for the node's forked children
// and merges their counters and summaries in child order, then caches
// the expanded subtree when eligible and folds its summary into the
// parent's accumulator. Nothing is cached on an error path.
func (s *StepRun) finish(f *finish) error {
	if j := f.join; j != nil {
		j.wg.Wait()
		for _, err := range j.errs {
			if err != nil {
				return err
			}
		}
		for i, sub := range j.subs {
			if sub != nil {
				s.ops += sub.ops
				s.count.Nodes += sub.count.Nodes
				s.count.QueriesRun += sub.count.QueriesRun
				s.count.StopsApplied += sub.count.StopsApplied
				s.count.NodesShared += sub.count.NodesShared
				s.count.MaxDepth = max(s.count.MaxDepth, sub.count.MaxDepth)
			}
			if j.deps != nil {
				f.cd.merge(j.deps[i])
			}
		}
	}
	if f.dp == nil {
		return nil
	}
	mine := f.cd.promote(f.key)
	if !mine.overflow {
		s.r.subtrees.insert(f.key, &subtreeEntry{
			children: f.node.Children,
			size:     mine.size,
			height:   mine.height,
			stops:    mine.stops,
			hits:     mine.hits,
			misses:   mine.misses,
		})
	}
	f.dp.merge(mine)
	return nil
}

// drain steps the frontier to empty for RunContext. The child of a
// fan-out node that gets a worker slot when it reaches the top is
// forked instead of stepped. drain contains its own panics, so a panic
// on a worker becomes a *runctl.ErrInternal rather than killing the
// process. Any failure goes through fail, which cancels the run so
// siblings stop at their next step, and drain waits for every fan-out
// still on its frontier, so no worker outlives it.
func (s *StepRun) drain() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = runctl.InternalFrom("pt.Run", p)
		}
		if err != nil {
			err = s.r.fail(err)
			for _, p := range s.frontier {
				if p.fin != nil && p.fin.join != nil {
					p.fin.join.wg.Wait()
				}
			}
		}
	}()
	for len(s.frontier) > 0 {
		if p := s.frontier[len(s.frontier)-1]; p.join != nil && s.fork(p) {
			continue
		}
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// fork pops p, a child of a fan-out node, and drains it on a private
// frontier in a new goroutine when a worker slot is free; it reports
// whether it did.
func (s *StepRun) fork(p stepPending) bool {
	select {
	case s.r.sem <- struct{}{}:
	default:
		return false
	}
	s.frontier = s.frontier[:len(s.frontier)-1]
	j := p.join
	p.join = nil
	sub := &StepRun{r: s.r, frontier: []stepPending{p}}
	j.subs[p.idx] = sub
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		defer func() { <-s.r.sem }()
		j.errs[p.idx] = sub.drain()
	}()
	return true
}
