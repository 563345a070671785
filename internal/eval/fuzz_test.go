package eval

import (
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// fuzzDecoder turns a fuzz byte stream into a small instance and a
// random CQ/FO formula, deterministically: the same bytes always yield
// the same workload, so crashes are replayable from the corpus.
type fuzzDecoder struct {
	data []byte
	pos  int
}

func (d *fuzzDecoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// instance decodes a few A(1) and E(2) facts over the domain {0,1,2}.
// One decode path leaves the instance (and hence the active domain)
// completely empty — evaluation over an empty domain is a standing
// edge case for complements, quantifier expansion and fixpoints.
func (d *fuzzDecoder) instance(s *relation.Schema) *relation.Instance {
	inst := relation.NewInstance(s)
	if d.byte()%5 == 0 {
		return inst
	}
	for k := int(d.byte()) % 4; k > 0; k-- {
		inst.Add("A", string(value.Of(int(d.byte())%3)))
	}
	for k := int(d.byte()) % 5; k > 0; k-- {
		inst.Add("E", string(value.Of(int(d.byte())%3)), string(value.Of(int(d.byte())%3)))
	}
	inst.Add("A", "0") // keep the active domain nonempty
	return inst
}

// formula decodes a CQ/FO formula of bounded depth over A, E, x/y/z and
// the constants 0..2. Depth bounds keep the naive evaluator's
// complement/quantifier blowup affordable per fuzz exec.
func (d *fuzzDecoder) formula(depth int) logic.Formula {
	vars := []logic.Var{"x", "y", "z"}
	v := func() logic.Var { return vars[int(d.byte())%len(vars)] }
	term := func() logic.Term {
		if d.byte()%4 == 0 {
			return logic.Const(value.Of(int(d.byte()) % 3))
		}
		return v()
	}
	if depth <= 0 {
		switch d.byte() % 5 {
		case 0:
			return logic.R("A", term())
		case 1:
			return logic.R("E", term(), term())
		case 2:
			return logic.EqT(term(), term())
		case 3:
			return logic.NeqT(term(), term())
		default:
			return logic.True
		}
	}
	switch d.byte() % 9 {
	case 0:
		return &logic.And{L: d.formula(depth - 1), R: d.formula(depth - 1)}
	case 1:
		return &logic.Or{L: d.formula(depth - 1), R: d.formula(depth - 1)}
	case 2:
		return &logic.Not{F: d.formula(depth - 1)}
	case 3:
		return logic.Ex([]logic.Var{v()}, d.formula(depth-1))
	case 4:
		return logic.All([]logic.Var{v()}, d.formula(depth-1))
	case 5:
		// Transitive closure of E applied to decoded terms: the
		// canonical recursive fixpoint (IFP).
		u, w, s := logic.Var("u"), logic.Var("w"), logic.Var("s")
		return &logic.Fixpoint{
			Rel:  "S",
			Vars: []logic.Var{u, w},
			Body: &logic.Or{
				L: logic.R("E", u, w),
				R: logic.Ex([]logic.Var{s},
					logic.Conj(logic.R("S", u, s), logic.R("E", s, w))),
			},
			Args: []logic.Term{term(), term()},
		}
	case 6:
		// Non-recursive fixpoint over a decoded body: converges in one
		// or two iterations but exercises stage bookkeeping, variable
		// expansion inside the body and frees escaping the binder.
		u := logic.Var("u")
		return &logic.Fixpoint{
			Rel:  "S",
			Vars: []logic.Var{u},
			Body: &logic.Or{L: logic.R("A", u), R: d.formula(0)},
			Args: []logic.Term{term()},
		}
	default:
		return d.formula(0)
	}
}

// FuzzDifferentialEval is the differential oracle of this package: on
// every decoded (instance, formula) pair, the compiled-plan evaluator
// (EvalQuery), the textbook active-domain evaluator (EvalQueryNaive, ¬
// via complement, ∀ via ¬∃¬) and the memoized evaluator (EvalQueryMemo,
// twice — the second call exercising the hit path) must agree exactly. The grammar includes fixpoints and
// one decode path yields an entirely empty instance.
func FuzzDifferentialEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 4, 0, 1, 1, 2, 2, 0, 0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte("differential eval seed: quantifiers and negation"))
	f.Add([]byte{1, 2, 2, 1, 0, 2, 4, 3, 3, 2, 1, 0, 255, 128, 64, 32, 16, 8})
	// Seeds biased toward the fixpoint grammar cases (5 and 6 mod 9)
	// and the empty-instance decode path (first byte ≡ 0 mod 5).
	f.Add([]byte{1, 2, 1, 0, 1, 1, 2, 5, 1, 0, 5, 2, 1, 14, 0, 1, 2, 3})
	f.Add([]byte{0, 5, 1, 1, 14, 2, 0, 1, 5, 0, 2, 1})
	f.Add([]byte{5, 3, 1, 2, 0, 4, 1, 2, 1, 0, 0, 5, 14, 5, 14, 2, 2, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
		inst := d.instance(s)
		fla := d.formula(1 + int(d.byte())%3)
		free := SortedVars(logic.FreeVars(fla))
		q, err := logic.NewQuery(nil, free, fla)
		if err != nil {
			t.Skip() // e.g. sentences with empty heads
		}
		agreeAll(t, q, NewEnv(inst), inst)
	})
}

// agreeAll requires EvalQuery, EvalQueryNaive and EvalQueryMemo (twice,
// the second call a hit) to agree exactly on q over env.
func agreeAll(t *testing.T, q *logic.Query, env *Env, inst *relation.Instance) {
	t.Helper()
	fla := q.F
	opt, err1 := EvalQuery(q, env)
	naive, err2 := EvalQueryNaive(q, env)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("error mismatch: plan %v, naive %v on %s", err1, err2, fla)
	}
	if err1 != nil {
		return
	}
	if !opt.Equal(naive) {
		t.Fatalf("plan and naive disagree on %s\n plan  %s\n naive %s\n instance %s",
			fla, opt, naive, inst)
	}

	m := NewMemo(0)
	cold, err := EvalQueryMemo(q, env, m)
	if err != nil {
		t.Fatalf("memo (cold): %v on %s", err, fla)
	}
	warm, err := EvalQueryMemo(q, env, m)
	if err != nil {
		t.Fatalf("memo (warm): %v on %s", err, fla)
	}
	if !cold.Equal(opt) || !warm.Equal(opt) {
		t.Fatalf("memoized evaluation disagrees on %s", fla)
	}
	if hits, _, _ := m.Stats(); hits != 1 {
		t.Fatalf("second memo call should hit (hits=%d) on %s", hits, fla)
	}
}

// register decodes a one- or two-tuple register of the given arity over
// the fuzz domain {0,1,2}.
func (d *fuzzDecoder) register(arity int) *relation.Relation {
	reg := relation.New(arity)
	for k := 1 + int(d.byte())%2; k > 0; k-- {
		t := make(value.Tuple, arity)
		for i := range t {
			t[i] = value.Of(int(d.byte()) % 3)
		}
		reg.Add(t)
	}
	return reg
}

// FuzzDifferentialRegisterProbe is FuzzDifferentialEval in the shape of
// a rule query: a decoded 1–2-tuple register Reg (of arity 1 or 2) is
// conjoined with a decoded formula, so the plan's conjunctions start
// from the register and probe A, E and fixpoint stages by column index.
// Plan, naive and memo must agree exactly.
func FuzzDifferentialRegisterProbe(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 1, 1, 2, 2, 0, 1, 1, 0, 1, 0, 2, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{2, 2, 1, 1, 0, 2, 4, 0, 1, 1, 2, 0, 1, 1, 0, 0, 9, 0, 1, 1, 1})
	f.Add([]byte{3, 1, 2, 3, 0, 1, 1, 2, 1, 2, 0, 1, 1, 2, 5, 0, 1, 2, 1, 0})
	f.Add([]byte("register probe seed: Reg(x) joined with E"))
	// First byte ≡ 0 mod 5: the empty-instance decode path, with a
	// nonempty register.
	f.Add([]byte{0, 1, 1, 2, 1, 0, 0, 1, 5, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
		inst := d.instance(s)
		arity := 1 + int(d.byte())%2
		reg := d.register(arity)
		regAtom := logic.R("Reg", logic.Var("x"))
		if arity == 2 {
			regAtom = logic.R("Reg", logic.Var("x"), logic.Var("y"))
		}
		var fla logic.Formula = logic.Conj(regAtom, d.formula(1+int(d.byte())%3))
		if d.byte()%2 == 0 {
			fla = logic.Ex([]logic.Var{"x"}, fla)
		}
		q, err := logic.NewQuery(nil, SortedVars(logic.FreeVars(fla)), fla)
		if err != nil {
			t.Skip()
		}
		agreeAll(t, q, NewEnv(inst).WithRelation("Reg", reg), inst)
	})
}
