package plan_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ptx/internal/eval"
	"ptx/internal/logic"
	"ptx/internal/plan"
	"ptx/internal/relation"
	"ptx/internal/runctl"
)

func x() logic.Var                   { return logic.Var("x") }
func y() logic.Var                   { return logic.Var("y") }
func z() logic.Var                   { return logic.Var("z") }
func vs(names ...string) []logic.Var { return logic.Vars(names...) }

func graphInstance() *relation.Instance {
	s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
	inst := relation.NewInstance(s)
	inst.Add("A", "a")
	inst.Add("A", "b")
	inst.Add("E", "a", "b")
	inst.Add("E", "b", "c")
	inst.Add("E", "c", "a")
	inst.Add("E", "a", "a")
	inst.Add("E", "c", "d")
	return inst
}

func emptyInstance() *relation.Instance {
	s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
	return relation.NewInstance(s)
}

// diff evaluates q through the compiled plan and through the naive
// evaluator and requires identical results (or both failing).
func diff(t *testing.T, q *logic.Query, env *eval.Env) {
	t.Helper()
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	got, gerr := p.Eval(env)
	want, werr := eval.EvalQueryNaive(q, env)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: plan err %v, naive err %v", q, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !got.Equal(want) {
		t.Fatalf("%s:\nplan  %s\nnaive %s\n%s", q, got, want, p.Explain())
	}
}

func tcFix(rel string, u, v logic.Var, args ...logic.Term) *logic.Fixpoint {
	w := logic.Var("w")
	return &logic.Fixpoint{
		Rel:  rel,
		Vars: []logic.Var{u, v},
		Body: &logic.Or{
			L: logic.R("E", u, v),
			R: &logic.Exists{Bound: []logic.Var{w}, F: logic.Conj(logic.R(rel, u, w), logic.R("E", w, v))},
		},
		Args: args,
	}
}

func TestPlanDifferential(t *testing.T) {
	cases := []struct {
		name string
		q    *logic.Query
	}{
		{"atom", logic.MustQuery(vs("x"), vs("y"), logic.R("E", x(), y()))},
		{"dup-var", logic.MustQuery(vs("x"), nil, logic.R("E", x(), x()))},
		{"const-scan", logic.MustQuery(vs("x"), nil, logic.R("E", logic.Const("a"), x()))},
		{"const-only", logic.MustQuery(nil, nil, logic.R("E", logic.Const("a"), logic.Const("b")))},
		{"path-join", logic.MustQuery(vs("x"), vs("y", "z"),
			logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z())))},
		{"triangle-neq", logic.MustQuery(vs("x"), vs("y", "z"),
			logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z()), logic.R("E", z(), x()),
				logic.NeqT(x(), z())))},
		{"cross-product", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), logic.R("A", y())))},
		{"eq-binds-const", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), logic.EqT(y(), logic.Const("b"))))},
		{"eq-binds-var", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), logic.EqT(x(), y())))},
		{"eq-both-unbound", logic.MustQuery(vs("x"), vs("y", "z"),
			logic.Conj(logic.R("A", x()), logic.EqT(y(), z())))},
		{"eq-self", logic.MustQuery(vs("x"), nil, logic.EqT(x(), x()))},
		{"neq-self", logic.MustQuery(vs("x"), nil, logic.NeqT(x(), x()))},
		{"neq-unbound", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), logic.NeqT(y(), logic.Const("a"))))},
		{"neq-both-unbound", logic.MustQuery(vs("x"), vs("y"),
			logic.NeqT(x(), y()))},
		{"standalone-eq", logic.MustQuery(vs("x"), nil, logic.EqT(x(), logic.Const("c")))},
		{"or", logic.MustQuery(vs("x"), vs("y"),
			&logic.Or{L: logic.R("E", x(), y()), R: logic.R("A", x())})},
		{"not-atom", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("A", x()), &logic.Not{F: logic.R("E", x(), x())}))},
		{"not-conj", logic.MustQuery(vs("x"), vs("y"),
			&logic.Not{F: logic.Conj(logic.R("E", x(), y()), logic.R("A", x()))})},
		{"not-unbound", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), &logic.Not{F: logic.R("E", y(), y())}))},
		{"exists", logic.MustQuery(vs("x"), nil,
			&logic.Exists{Bound: vs("y"), F: logic.R("E", x(), y())})},
		{"forall", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("A", x()),
				&logic.Forall{Bound: vs("y"), F: &logic.Or{L: &logic.Not{F: logic.R("E", x(), y())}, R: logic.R("A", y())}}))},
		{"sentence-not", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("A", x()), &logic.Not{F: &logic.Exists{Bound: vs("y"), F: logic.R("E", y(), y())}}))},
		{"truth", logic.MustQuery(vs("x"), nil, logic.Conj(logic.R("A", x()), logic.True))},
		{"falsity", logic.MustQuery(nil, nil, logic.False)},
		{"free-head", logic.MustQuery(vs("x"), vs("y"), logic.R("A", x()))},
		{"fixpoint-tc", logic.MustQuery(vs("x"), vs("y"), tcFix("S", x(), y(), x(), y()))},
		{"fixpoint-const", logic.MustQuery(vs("y"), nil, tcFix("S", x(), y(), logic.Const("a"), y()))},
		{"fixpoint-neg", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), &logic.Not{F: tcFix("S", x(), y(), x(), y())}))},
	}
	envs := map[string]*eval.Env{
		"graph": eval.NewEnv(graphInstance()),
		"empty": eval.NewEnv(emptyInstance()),
	}
	for _, tc := range cases {
		for ename, env := range envs {
			t.Run(tc.name+"/"+ename, func(t *testing.T) { diff(t, tc.q, env) })
		}
	}

	// Register-shaped queries over a relation far larger than the bound
	// prefix, so the conjunction joins E by probing its column index.
	u, v, w := logic.Var("u"), logic.Var("v"), logic.Var("w")
	probeFix := &logic.Fixpoint{
		Rel:  "S",
		Vars: []logic.Var{u, v},
		Body: &logic.Or{
			L: logic.R("E", u, v),
			R: &logic.Exists{Bound: []logic.Var{w}, F: logic.Conj(logic.R("Reg", u), logic.R("S", u, w), logic.R("E", w, v))},
		},
		Args: []logic.Term{x(), y()},
	}
	probeCases := []struct {
		name string
		q    *logic.Query
	}{
		{"probe-reg", logic.MustQuery(vs("x", "y"), nil, logic.Conj(logic.R("Reg", x()), logic.R("E", x(), y())))},
		{"probe-const", logic.MustQuery(vs("x"), nil, logic.Conj(logic.R("Reg", x()), logic.R("E", x(), logic.Const("a"))))},
		{"probe-dup", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("E", x(), y()), logic.R("E", y(), y())))},
		{"probe-two-cols", logic.MustQuery(vs("x", "y"), nil, logic.Conj(logic.R("Reg2", x(), y()), logic.R("E", x(), y())))},
		{"probe-chain", logic.MustQuery(vs("x", "y", "z"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("E", x(), y()), logic.R("E", y(), z()), logic.R("A", z())))},
		{"probe-filters", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("E", x(), y()), logic.NeqT(x(), y()), &logic.Not{F: logic.R("A", y())}))},
		{"probe-fixpoint-stage", logic.MustQuery(vs("x", "y"), nil, logic.Conj(logic.R("Reg", x()), probeFix))},
	}
	probeEnvs := map[string]*eval.Env{
		"wide":  wideEnv(wideInstance()),
		"empty": wideEnv(emptyInstance()),
	}
	for _, tc := range probeCases {
		for ename, env := range probeEnvs {
			t.Run(tc.name+"/"+ename, func(t *testing.T) { diff(t, tc.q, env) })
		}
	}
}

// wideInstance has an E of a few hundred edges over 100 values, some of
// them self-loops and some into the constant "a", and an A of 30 values
// (every third one from v01).
func wideInstance() *relation.Instance {
	inst := emptyInstance()
	val := func(i int) string { return fmt.Sprintf("v%02d", i%100) }
	for i := 0; i < 300; i++ {
		inst.Add("E", val(i), val(i*7+3+i/100))
	}
	for i := 0; i < 100; i += 10 {
		inst.Add("E", val(i), val(i))
		inst.Add("E", val(i+1), "a")
	}
	for i := 0; i < 30; i++ {
		inst.Add("A", val(i*3+1))
	}
	return inst
}

// wideEnv binds the one- and two-column registers the probe cases join
// from: Reg = {v01, v10}, Reg2 = {(v01,v10), (v02,v99)}; (v01,v10) is an
// edge of wideInstance.
func wideEnv(inst *relation.Instance) *eval.Env {
	return eval.NewEnv(inst).
		WithRelation("Reg", relation.FromRows([]string{"v01"}, []string{"v10"})).
		WithRelation("Reg2", relation.FromRows([]string{"v01", "v10"}, []string{"v02", "v99"}))
}

func TestPlanExtraRelationShadowing(t *testing.T) {
	inst := graphInstance()
	reg := relation.FromRows([]string{"a", "z"})
	env := eval.NewEnv(inst).WithRelation("Reg", reg)
	q := logic.MustQuery(vs("x"), vs("y"),
		logic.Conj(logic.R("Reg", x(), y()), logic.R("E", x(), x())))
	diff(t, q, env)
	// The extra relation's values must enter the active domain ("z").
	q2 := logic.MustQuery(vs("x"), vs("y"),
		logic.Conj(logic.R("A", x()), logic.NeqT(y(), logic.Const("q"))))
	diff(t, q2, env.WithRelation("Reg", reg))
}

func TestPlanErrors(t *testing.T) {
	env := eval.NewEnv(graphInstance())
	for name, q := range map[string]*logic.Query{
		"unknown-relation": logic.MustQuery(vs("x"), nil, logic.R("U", x())),
		"arity-mismatch":   logic.MustQuery(vs("x"), nil, logic.R("E", x())),
	} {
		t.Run(name, func(t *testing.T) {
			p, err := plan.Compile(q)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if _, err := p.Eval(env); err == nil {
				t.Fatal("expected evaluation error")
			}
			diff(t, q, env) // and the failure mode matches the naive evaluator
		})
	}
}

func TestPlanFixpointBudget(t *testing.T) {
	ctl := runctl.New(context.Background(), runctl.Limits{MaxFixpointIters: 1})
	env := eval.NewEnv(graphInstance()).WithControl(ctl)
	q := logic.MustQuery(vs("x"), vs("y"), tcFix("S", x(), y(), x(), y()))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Eval(env); err == nil {
		t.Fatal("fixpoint budget of 1 iteration should fail on transitive closure")
	}
}

func TestPlanCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := eval.NewEnv(graphInstance()).WithControl(runctl.New(ctx, runctl.Limits{}))
	q := logic.MustQuery(vs("x"), vs("y", "z"),
		logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z())))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Eval(env); err == nil {
		t.Fatal("canceled context should abort evaluation")
	}

	// A cancellation that lands after the up-front check must be seen by
	// the probe join's sampled ticks: Reg holds one value with 1000
	// E-edges out of it, far more than the 1-in-256 tick sampling needs.
	t.Run("probe", func(t *testing.T) {
		s := relation.NewSchema().MustDeclare("E", 2)
		inst := relation.NewInstance(s)
		for i := 0; i < 1000; i++ {
			inst.Add("E", "a", fmt.Sprint(i))
			inst.Add("E", "b", fmt.Sprint(i))
		}
		ctx := &cancelAfterFirstCheck{Context: context.Background()}
		env := eval.NewEnv(inst).WithRelation("Reg", relation.FromRows([]string{"a"})).
			WithControl(runctl.New(ctx, runctl.Limits{}))
		p, err := plan.Compile(logic.MustQuery(vs("x", "y"), nil, logic.Conj(logic.R("Reg", x()), logic.R("E", x(), y()))))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Eval(env)
		var ce *runctl.ErrCanceled
		if !errors.As(err, &ce) {
			t.Fatalf("got %v (result %v), want *runctl.ErrCanceled", err, got)
		}
		if got != nil {
			t.Fatalf("canceled evaluation returned a partial result of %d tuples", got.Len())
		}
	})
}

// cancelAfterFirstCheck is a context that is live on its first Err call
// and canceled from then on, so Plan.Eval's up-front check passes and
// only the executor's ticks can observe the cancellation.
type cancelAfterFirstCheck struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelAfterFirstCheck) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestPlanConcurrentEval: one compiled plan is safe for concurrent use.
// In the probe case the instance is fresh, so the goroutines race to
// build E's column index.
func TestPlanConcurrentEval(t *testing.T) {
	cases := map[string]struct {
		q   *logic.Query
		env *eval.Env
	}{
		"fixpoint": {logic.MustQuery(vs("x"), vs("y"), tcFix("S", x(), y(), x(), y())), eval.NewEnv(graphInstance())},
		"probe": {logic.MustQuery(vs("x", "y", "z"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("E", x(), y()), logic.R("E", y(), z()))), wideEnv(wideInstance())},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p, err := plan.Compile(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eval.EvalQueryNaive(tc.q, tc.env)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 8)
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got, err := p.Eval(tc.env)
					if err != nil {
						errs[i] = err
						return
					}
					if !got.Equal(want) {
						errs[i] = errMismatch
					}
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent eval produced a different result" }

func TestPlanExplain(t *testing.T) {
	q := logic.MustQuery(vs("x"), vs("y", "z"),
		logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z()), logic.NeqT(x(), z())))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"plan head=(x,y,z)", "conj", "scan E(x,y)", "x!=z"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	// A constant argument routes the scan through a column index.
	q2 := logic.MustQuery(vs("x"), nil, logic.R("E", logic.Const("a"), x()))
	p2, err := plan.Compile(q2)
	if err != nil {
		t.Fatal(err)
	}
	if out := p2.Explain(); !strings.Contains(out, "[index col 0]") {
		t.Fatalf("constant scan not index-backed:\n%s", out)
	}
}
