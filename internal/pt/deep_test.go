package pt

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/testutil"
	"ptx/internal/xmltree"
)

// chainTransducerN builds a transducer whose output on {R1(v)} is a
// chain of n "a" nodes under the root: n distinct states over a single
// reused tag, so the per-level work is O(1) and the only thing that
// grows is depth. This is the deep regime of Proposition 1(4) distilled:
// the recursive expansion used to need one Go stack frame and one full
// ancestor-set copy per level.
func chainTransducerN(n int) *Transducer {
	tr := New("chain"+strconv.Itoa(n), unarySchema(), "q0", "r")
	tr.DeclareTag("a", 1)
	root := logic.MustQuery([]logic.Var{x}, nil, logic.R("R1", x))
	step := logic.MustQuery([]logic.Var{x}, nil, logic.R(RegRel, x))
	tr.AddRule("q0", "r", Item("q1", "a", root))
	for i := 1; i < n; i++ {
		tr.AddRule("q"+strconv.Itoa(i), "a", Item("q"+strconv.Itoa(i+1), "a", step))
	}
	// q_n has no rule for "a": the chain finalizes as a leaf.
	return tr
}

func chainInstance() *relation.Instance {
	inst := relation.NewInstance(unarySchema())
	inst.Add("R1", "v")
	return inst
}

// TestDeepChainMillion: a depth-10^6 chain must expand, serialize and
// round-trip without stack overflow or quadratic ancestor copying.
func TestDeepChainMillion(t *testing.T) {
	n := 1_000_000
	if raceEnabled {
		n = 50_000 // the detector is ~10× slower; full depth adds nothing here
	}
	tr := chainTransducerN(n)
	inst := chainInstance()

	res, err := tr.Run(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxDepth != n+1 {
		t.Fatalf("MaxDepth = %d, want %d", res.Stats.MaxDepth, n+1)
	}
	if res.Stats.Nodes != n+1 {
		t.Fatalf("Nodes = %d, want %d", res.Stats.Nodes, n+1)
	}

	out := res.Xi.Publish(tr.Virtual)
	if d := out.Depth(); d != n+1 {
		t.Fatalf("output depth = %d, want %d", d, n+1)
	}
	canon := out.Canonical()
	if !strings.HasPrefix(canon, "r(a(a(") || !strings.HasSuffix(canon, ")))") {
		t.Fatalf("canonical shape wrong: %.20s…%s", canon, canon[len(canon)-4:])
	}
}

// TestDeepChainCacheModesAgree: the deep regime must be byte-identical
// and stats-identical across all cache modes, including subtree sharing
// (whose dependency sets overflow on a long chain and must degrade
// gracefully to "don't cache", never to wrong output), serial and with
// parallel workers.
func TestDeepChainCacheModesAgree(t *testing.T) {
	n := 100_000
	if raceEnabled {
		n = 20_000
	}
	tr := chainTransducerN(n)
	inst := chainInstance()

	type outcome struct {
		canon string
		nodes int
		depth int
	}
	var base *outcome
	for _, opts := range []Options{
		{Cache: CacheOff}, {Cache: CacheQueries}, {Cache: CacheSubtrees},
		{Cache: CacheSubtrees, Workers: 4},
	} {
		res, err := tr.Run(inst, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.Stats.CacheMode != opts.Cache {
			t.Fatalf("effective mode = %v, want %v", res.Stats.CacheMode, opts.Cache)
		}
		rel, err := tr.OutputRelation(inst, "a", opts)
		if err != nil {
			t.Fatalf("%+v: OutputRelation: %v", opts, err)
		}
		if rel.Len() != 1 {
			t.Fatalf("%+v: output relation size = %d, want 1", opts, rel.Len())
		}
		o := &outcome{
			canon: res.Xi.Publish(tr.Virtual).Canonical(),
			nodes: res.Stats.Nodes,
			depth: res.Stats.MaxDepth,
		}
		if base == nil {
			base = o
			continue
		}
		if o.canon != base.canon {
			t.Errorf("%+v: canonical output differs from CacheOff", opts)
		}
		if o.nodes != base.nodes || o.depth != base.depth {
			t.Errorf("%+v: stats (%d,%d) differ from CacheOff (%d,%d)",
				opts, o.nodes, o.depth, base.nodes, base.depth)
		}
	}
}

// TestGroupArityValidate: a rule item whose grouping prefix is wider
// than the declared tag arity must be rejected by Validate with the
// typed *GroupArityError — it used to survive validation and panic on
// t[:k] during grouping.
func TestGroupArityValidate(t *testing.T) {
	sch := relation.NewSchema().MustDeclare("R2", 2)
	y := logic.Var("y")
	tr := New("badgroup", sch, "q0", "r")
	tr.DeclareTag("a", 1)
	// Two group variables against Θ(a)=1.
	q := logic.MustQuery([]logic.Var{x, y}, nil, logic.R("R2", x, y))
	tr.AddRule("q0", "r", Item("q", "a", q))

	err := tr.Validate()
	if err == nil {
		t.Fatal("Validate accepted |x̄| > Θ(tag)")
	}
	var ge *GroupArityError
	if !errors.As(err, &ge) {
		t.Fatalf("error %v is not a *GroupArityError", err)
	}
	if ge.GroupVars != 2 || ge.Arity != 1 {
		t.Fatalf("GroupArityError = %+v, want {2 1}", ge)
	}

	// The run path surfaces the same validation error instead of
	// panicking mid-expansion.
	inst := relation.NewInstance(sch)
	inst.Add("R2", "u", "v")
	if _, runErr := tr.Run(inst, Options{}); !errors.As(runErr, &ge) {
		t.Fatalf("Run error %v is not a *GroupArityError", runErr)
	}
}

// TestGroupByPrefixArityGuard: the runtime defense in groupByPrefix
// itself — a mis-sized result relation (as a corrupted cache could
// produce) yields the typed error, not a slice-bounds panic.
func TestGroupByPrefixArityGuard(t *testing.T) {
	rel := relation.New(1)
	rel.Add(xmltree.RegisterOfSingle("v").Tuples()[0])
	if _, err := groupByPrefix(rel, 1); err != nil {
		t.Fatalf("k == arity must group: %v", err)
	}
	_, err := groupByPrefix(rel, 2)
	var ge *GroupArityError
	if !errors.As(err, &ge) {
		t.Fatalf("error %v is not a *GroupArityError", err)
	}
	if ge.GroupVars != 2 || ge.Arity != 1 {
		t.Fatalf("GroupArityError = %+v, want {2 1}", ge)
	}
}

// TestWorkerPanicContained: a panic on a forked worker's frontier comes
// back from the run as a *runctl.ErrInternal instead of killing the
// process, and the worker has exited by the time the run returns.
func TestWorkerPanicContained(t *testing.T) {
	tr := simple()
	inst := relation.NewInstance(unarySchema())
	for _, v := range []string{"1", "2", "3"} {
		inst.Add("R1", v)
	}
	base := runtime.NumGoroutine()
	s, err := tr.start(context.Background(), inst, Options{Workers: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.step(); err != nil { // the root fans out into three children
		t.Fatal(err)
	}
	// The first child forked gets no register, so its worker panics.
	s.frontier[len(s.frontier)-1].node.Reg = nil
	err = s.drain()
	var ie *runctl.ErrInternal
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want *runctl.ErrInternal", err)
	}
	testutil.SettledGoroutines(t, base)
}
