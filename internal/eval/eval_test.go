package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/value"
)

func graphInstance(edges ...[2]string) *relation.Instance {
	s := relation.NewSchema().MustDeclare("E", 2)
	i := relation.NewInstance(s)
	for _, e := range edges {
		i.Add("E", e[0], e[1])
	}
	return i
}

var (
	x = logic.Var("x")
	y = logic.Var("y")
	z = logic.Var("z")
)

func TestAtomEval(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	env := NewEnv(inst)
	b, err := Eval(logic.R("E", x, y), env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 2 {
		t.Fatalf("E(x,y) = %s", b.Rel)
	}
}

func TestAtomRepeatedVar(t *testing.T) {
	inst := graphInstance([2]string{"a", "a"}, [2]string{"a", "b"})
	env := NewEnv(inst)
	b, err := Eval(logic.R("E", x, x), env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 1 || !b.Rel.Contains(value.Tuple{"a"}) {
		t.Fatalf("E(x,x) = %s", b.Rel)
	}
}

func TestAtomConstants(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"a", "c"})
	env := NewEnv(inst)
	b, err := Eval(logic.R("E", logic.Const("a"), y), env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 2 {
		t.Fatalf("E('a',y) = %s", b.Rel)
	}
	b, err = Eval(logic.R("E", logic.Const("zz"), y), env)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Rel.Empty() {
		t.Fatalf("E('zz',y) = %s", b.Rel)
	}
}

func TestConjunctionIsJoin(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"b", "d"})
	env := NewEnv(inst)
	// E(x,y) ∧ E(y,z): paths of length 2.
	f := logic.Conj(logic.R("E", x, y), logic.R("E", y, z))
	b, err := Eval(f, env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 2 {
		t.Fatalf("2-paths = %s over vars %v", b.Rel, b.Vars)
	}
}

func TestNegationActiveDomain(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"})
	env := NewEnv(inst)
	// ¬E(x,y) over adom {a,b}: 4 pairs minus 1.
	b, err := Eval(&logic.Not{F: logic.R("E", x, y)}, env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 3 {
		t.Fatalf("¬E = %s", b.Rel)
	}
}

func TestDisjunctionExpands(t *testing.T) {
	s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("B", 1)
	inst := relation.NewInstance(s)
	inst.Add("A", "a")
	inst.Add("B", "b")
	env := NewEnv(inst)
	// A(x) ∨ B(y) over adom {a,b}: {(a,a),(a,b),(a,?)…} — every pair where
	// x∈A or y∈B: (a,a),(a,b),(b,b) and (a,b) dup → 3 pairs.
	f := logic.Disj(logic.R("A", x), logic.R("B", y))
	b, err := Eval(f, env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 3 {
		t.Fatalf("A(x)∨B(y) = %s over %v", b.Rel, b.Vars)
	}
}

func TestExistsProjects(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"a", "c"})
	env := NewEnv(inst)
	b, err := Eval(logic.Ex([]logic.Var{y}, logic.R("E", x, y)), env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 1 || !b.Rel.Contains(value.Tuple{"a"}) {
		t.Fatalf("∃y E(x,y) = %s", b.Rel)
	}
}

func TestForall(t *testing.T) {
	// ∀y E(x,y): x relates to every adom element.
	inst := graphInstance([2]string{"a", "a"}, [2]string{"a", "b"}, [2]string{"b", "a"})
	env := NewEnv(inst)
	b, err := Eval(logic.All([]logic.Var{y}, logic.R("E", x, y)), env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 1 || !b.Rel.Contains(value.Tuple{"a"}) {
		t.Fatalf("∀y E(x,y) = %s", b.Rel)
	}
}

func TestForallVacuous(t *testing.T) {
	// Over an empty instance with a constant in the formula, ∀x x='c'
	// holds because adom = {c}.
	s := relation.NewSchema()
	inst := relation.NewInstance(s)
	env := NewEnv(inst)
	ok, err := EvalSentence(logic.All([]logic.Var{x}, logic.EqT(x, logic.Const("c"))), env)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("∀x x='c' should hold over adom {c}")
	}
}

func TestEqNeq(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"})
	env := NewEnv(inst)
	b, err := Eval(logic.EqT(x, y), env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 2 { // (a,a),(b,b)
		t.Fatalf("x=y gives %s", b.Rel)
	}
	b, err = Eval(logic.NeqT(x, y), env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 2 { // (a,b),(b,a)
		t.Fatalf("x≠y gives %s", b.Rel)
	}
	b, err = Eval(logic.EqT(x, logic.Const("zz")), env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 1 || !b.Rel.Contains(value.Tuple{"zz"}) {
		t.Fatalf("x='zz' gives %s", b.Rel)
	}
	// x ≠ x is unsatisfiable.
	b, err = Eval(logic.NeqT(x, x), env)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Rel.Empty() {
		t.Fatalf("x≠x gives %s", b.Rel)
	}
}

func TestTruthConstants(t *testing.T) {
	env := NewEnv(relation.NewInstance(relation.NewSchema()))
	ok, err := EvalSentence(logic.True, env)
	if err != nil || !ok {
		t.Fatal("True should hold", err)
	}
	ok, err = EvalSentence(logic.False, env)
	if err != nil || ok {
		t.Fatal("False should not hold", err)
	}
}

func TestFixpointTransitiveClosure(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	env := NewEnv(inst)
	u, v, w := logic.Var("u"), logic.Var("v"), logic.Var("w")
	body := logic.Disj(
		logic.R("E", u, v),
		logic.Ex([]logic.Var{w}, logic.Conj(logic.R("S", u, w), logic.R("E", w, v))),
	)
	tc := &logic.Fixpoint{Rel: "S", Vars: []logic.Var{u, v}, Body: body, Args: []logic.Term{x, y}}
	b, err := Eval(tc, env)
	if err != nil {
		t.Fatal(err)
	}
	// TC of the chain a→b→c→d has 3+2+1 = 6 pairs.
	if b.Rel.Len() != 6 {
		t.Fatalf("TC = %s", b.Rel)
	}
	if !b.Rel.Contains(value.Tuple{"a", "d"}) {
		t.Fatalf("TC missing (a,d): %s", b.Rel)
	}
}

func TestFixpointAppliedToConstants(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	env := NewEnv(inst)
	u, v, w := logic.Var("u"), logic.Var("v"), logic.Var("w")
	body := logic.Disj(
		logic.R("E", u, v),
		logic.Ex([]logic.Var{w}, logic.Conj(logic.R("S", u, w), logic.R("E", w, v))),
	)
	reach := &logic.Fixpoint{Rel: "S", Vars: []logic.Var{u, v}, Body: body,
		Args: []logic.Term{logic.Const("a"), logic.Const("c")}}
	ok, err := EvalSentence(reach, env)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a should reach c")
	}
	unreach := &logic.Fixpoint{Rel: "S", Vars: []logic.Var{u, v}, Body: body,
		Args: []logic.Term{logic.Const("c"), logic.Const("a")}}
	ok, err = EvalSentence(unreach, env)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("c should not reach a")
	}
}

func TestRegisterShadowing(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"})
	reg := relation.FromRows([]string{"r1"})
	env := NewEnv(inst).WithRelation("Reg", reg)
	b, err := Eval(logic.R("Reg", x), env)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 1 || !b.Rel.Contains(value.Tuple{"r1"}) {
		t.Fatalf("Reg(x) = %s", b.Rel)
	}
	// Register values join the active domain.
	nb, err := Eval(&logic.Not{F: logic.R("Reg", x)}, env)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Rel.Len() != 2 { // adom {a,b,r1} minus {r1}
		t.Fatalf("¬Reg(x) = %s", nb.Rel)
	}
}

func TestUnknownRelationErrors(t *testing.T) {
	env := NewEnv(relation.NewInstance(relation.NewSchema()))
	if _, err := Eval(logic.R("Nope", x), env); err == nil {
		t.Fatal("expected error for unknown relation")
	}
}

func TestArityMismatchErrors(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"})
	env := NewEnv(inst)
	if _, err := Eval(logic.R("E", x), env); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestEvalQueryHeadOrder(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"})
	env := NewEnv(inst)
	q := logic.MustQuery([]logic.Var{y}, []logic.Var{x}, logic.R("E", x, y))
	rel, err := EvalQuery(q, env)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Contains(value.Tuple{"b", "a"}) {
		t.Fatalf("head order wrong: %s", rel)
	}
}

// TestEvalQueryRejectsUnvalidatedHead: a query literal built without
// NewQuery whose head omits a free variable has no meaning as φ(x̄;ȳ),
// so EvalQuery and the reference evaluator both refuse it instead of
// silently projecting the variable away.
func TestEvalQueryRejectsUnvalidatedHead(t *testing.T) {
	env := NewEnv(graphInstance([2]string{"a", "b"}))
	q := &logic.Query{GroupVars: []logic.Var{x}, F: logic.R("E", x, y)}
	if rel, err := EvalQuery(q, env); err == nil {
		t.Fatalf("EvalQuery accepted a head without free variable y: %s", rel)
	}
	if rel, err := EvalQueryNaive(q, env); err == nil {
		t.Fatalf("EvalQueryNaive accepted a head without free variable y: %s", rel)
	}
}

func TestEvalSentenceRejectsFreeVars(t *testing.T) {
	env := NewEnv(relation.NewInstance(relation.NewSchema().MustDeclare("E", 2)))
	if _, err := EvalSentence(logic.R("E", x, y), env); err == nil {
		t.Fatal("expected free-variable error")
	}
}

// Property: De Morgan — ¬(A(x) ∧ B(x)) ≡ ¬A(x) ∨ ¬B(x) on random unary
// instances.
func TestDeMorganProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("B", 1)
		inst := relation.NewInstance(s)
		for k := 0; k < 4; k++ {
			if rng.Intn(2) == 0 {
				inst.Add("A", string(value.Of(k)))
			}
			if rng.Intn(2) == 0 {
				inst.Add("B", string(value.Of(k)))
			}
		}
		inst.Add("A", "0") // keep adom nonempty
		env := NewEnv(inst)
		lhs, err := Eval(&logic.Not{F: logic.Conj(logic.R("A", x), logic.R("B", x))}, env)
		if err != nil {
			return false
		}
		rhs, err := Eval(logic.Disj(&logic.Not{F: logic.R("A", x)}, &logic.Not{F: logic.R("B", x)}), env)
		if err != nil {
			return false
		}
		return lhs.Rel.Equal(rhs.Rel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: CQ evaluation is monotone — extending the instance never
// shrinks the result (the monotonicity used throughout Section 6).
func TestCQMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) *relation.Instance {
			s := relation.NewSchema().MustDeclare("E", 2)
			inst := relation.NewInstance(s)
			for k := 0; k < n; k++ {
				inst.Add("E", string(value.Of(rng.Intn(4))), string(value.Of(rng.Intn(4))))
			}
			return inst
		}
		small := mk(3)
		big := small.Clone()
		big.Add("E", string(value.Of(rng.Intn(4))), string(value.Of(rng.Intn(4))))
		q := logic.Conj(logic.R("E", x, y), logic.R("E", y, z), logic.NeqT(x, z))
		bs, err := Eval(q, NewEnv(small))
		if err != nil {
			return false
		}
		bb, err := Eval(q, NewEnv(big))
		if err != nil {
			return false
		}
		return bs.Rel.SubsetOf(bb.Rel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
