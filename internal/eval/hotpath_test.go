package eval

import (
	"fmt"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// wideInstance builds an instance whose active domain has 500 values
// (relation D) of which a small relation A holds 5.
func wideInstance() *relation.Instance {
	s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("D", 1)
	inst := relation.NewInstance(s)
	for i := 0; i < 500; i++ {
		inst.Add("D", fmt.Sprintf("v%03d", i))
	}
	for i := 0; i < 5; i++ {
		inst.Add("A", fmt.Sprintf("v%03d", i))
	}
	return inst
}

// TestConjUncoveredNeqNoBlowup pins the fix for the conjunction
// fallback: an inequality over a variable no positive conjunct binds
// used to be materialized as an |adom|² binding set (249,500 tuples
// here, ~750k allocations) and then joined. It must now expand only the
// missing variable per current row: 5·500 candidate rows, well under
// 100k allocations.
func TestConjUncoveredNeqNoBlowup(t *testing.T) {
	inst := wideInstance()
	q := logic.MustQuery(logic.Vars("x"), logic.Vars("y"),
		logic.Conj(logic.R("A", logic.Var("x")), logic.NeqT(logic.Var("x"), logic.Var("y"))))
	t.Run("plan", func(t *testing.T) {
		env := NewEnv(inst)
		got, err := EvalQuery(q, env)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 5*499 {
			t.Fatalf("rows = %d, want %d", got.Len(), 5*499)
		}
		want, err := EvalQueryNaive(q, env)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatal("result differs from naive oracle")
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := EvalQuery(q, env); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 100_000 {
			t.Fatalf("EvalQuery allocated %.0f objects; the adom² fallback is back", allocs)
		}
	})
}

// TestConjUncoveredEqBindsDirectly: an equality binding a fresh
// variable extends rows in place instead of sweeping the domain.
func TestConjUncoveredEqBindsDirectly(t *testing.T) {
	inst := wideInstance()
	q := logic.MustQuery(logic.Vars("x"), logic.Vars("y"),
		logic.Conj(logic.R("A", logic.Var("x")), logic.EqT(logic.Var("y"), logic.Var("x"))))
	env := NewEnv(inst)
	got, err := EvalQuery(q, env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Fatalf("rows = %d, want 5", got.Len())
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := EvalQuery(q, env); err != nil {
			t.Fatal(err)
		}
	})
	// Binding 5 rows must not scale with the 500-value domain (the old
	// path materialized the 500-row diagonal and joined).
	if allocs > 2_000 {
		t.Fatalf("EvalQuery allocated %.0f objects binding 5 rows", allocs)
	}
}

// TestDomainCachedOnDerivedEnvs pins the Env.Domain cache: repeated
// calls against an unchanged environment (including derived ones that
// add extra relations) return the same slice, and mutating an extra
// relation invalidates the cache.
func TestDomainCachedOnDerivedEnvs(t *testing.T) {
	inst := wideInstance()
	reg := relation.FromRows([]string{"r1"}, []string{"r2"})
	env := NewEnv(inst).WithRelation("Reg", reg)

	d1 := env.Domain(nil)
	d2 := env.Domain(nil)
	if len(d1) != 502 {
		t.Fatalf("domain size = %d, want 502", len(d1))
	}
	if &d1[0] != &d2[0] {
		t.Fatal("repeated Domain calls did not reuse the cached merge")
	}
	// WithControl derives an env with the same relations: same cache.
	if d3 := env.WithControl(nil).Domain(nil); &d1[0] != &d3[0] {
		t.Fatal("WithControl dropped the domain cache")
	}
	// Constants already in the domain keep the cached slice; new ones
	// produce a fresh merge.
	if dc := env.Domain([]value.V{"r1"}); &d1[0] != &dc[0] {
		t.Fatal("subsumed constants forced a re-merge")
	}
	if dc := env.Domain([]value.V{"brandnew"}); len(dc) != 503 {
		t.Fatalf("constant not merged: %d values", len(dc))
	}
	// Mutating the extra relation must invalidate the cached merge.
	reg.Insert(value.Tuple{"r3"})
	d4 := env.Domain(nil)
	if len(d4) != 503 {
		t.Fatalf("domain stale after extra-relation mutation: %d values", len(d4))
	}
	reg.Delete(value.Tuple{"r3"})
	if d5 := env.Domain(nil); len(d5) != 502 {
		t.Fatalf("domain stale after deletion: %d values", len(d5))
	}
}

// prereqInstance builds a registrar database with n courses CS00000…
// and the prerequisite chain prereq(c_i, c_{i+1}).
func prereqInstance(n int) *relation.Instance {
	s := relation.NewSchema().MustDeclare("course", 3).MustDeclare("prereq", 2)
	inst := relation.NewInstance(s)
	cno := func(i int) string { return fmt.Sprintf("CS%05d", i) }
	for i := 0; i < n; i++ {
		inst.Add("course", cno(i), fmt.Sprintf("title %d", i), "CS")
		if i+1 < n {
			inst.Add("prereq", cno(i), cno(i+1))
		}
	}
	return inst
}

// tau1PrereqQuery is τ1's rule query at a prereq node (Example 3.1):
// φ3(c,t) = ∃c2,d. Reg(c2) ∧ prereq(c2,c) ∧ course(c,t,d).
func tau1PrereqQuery() *logic.Query {
	c, t, c2, d := logic.Var("c"), logic.Var("t"), logic.Var("c2"), logic.Var("d")
	return logic.MustQuery(logic.Vars("c", "t"), nil,
		logic.Ex(logic.Vars("c2", "d"), logic.Conj(
			logic.R("Reg", c2),
			logic.R("prereq", c2, c),
			logic.R("course", c, t, d),
		)))
}

// TestRegisterProbeProportional pins the probe join: τ1's prereq query
// over a one-tuple register joins prereq and course by column-index
// lookups, so its allocations do not grow with the database. A plan that
// scans the relations allocates linearly in the number of courses.
func TestRegisterProbeProportional(t *testing.T) {
	q := tau1PrereqQuery()
	allocsAt := func(n int) float64 {
		env := NewEnv(prereqInstance(n)).WithRelation("Reg", relation.FromRows([]string{"CS00000"}))
		got, err := EvalQuery(q, env)
		if err != nil {
			t.Fatal(err)
		}
		want := relation.FromRows([]string{"CS00001", "title 1"})
		if !got.Equal(want) {
			t.Fatalf("n=%d: got %s, want %s", n, got, want)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := EvalQuery(q, env); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsAt(100), allocsAt(10_000)
	t.Logf("allocs/eval: %.0f at 100 courses, %.0f at 10000", small, large)
	if large > 2*small {
		t.Fatalf("allocs grew from %.0f to %.0f with 100× the courses; the register join scans the database", small, large)
	}
}

// domainCounter is a plan.Env that counts Domain calls.
type domainCounter struct {
	*Env
	calls int
}

func (d *domainCounter) Domain(extraConsts []value.V) []value.V {
	d.calls++
	return d.Env.Domain(extraConsts)
}

// TestDomainCallsOnlyWhenRanged: a plan asks for the active domain only
// when an operator ranges over it. Positive CQs — the rule queries of
// τ1 — and anti-joins over atoms never call Env.Domain; unbound ≠, ∀
// (a complement) and a disjunction whose sides bind different variables
// do, once per evaluation.
func TestDomainCallsOnlyWhenRanged(t *testing.T) {
	cno, title, dept := logic.Var("cno"), logic.Var("title"), logic.Var("dept")
	reg1 := relation.FromRows([]string{"CS00000"})
	reg2 := relation.FromRows([]string{"CS00000", "title 0"})
	cases := []struct {
		name  string
		q     *logic.Query
		reg   *relation.Relation
		calls int
	}{
		{"tau1-root", logic.MustQuery(logic.Vars("cno", "title"), nil,
			logic.Ex(logic.Vars("dept"), logic.Conj(logic.R("course", cno, title, dept), logic.EqT(dept, logic.Const("CS"))))),
			reg1, 0},
		{"tau1-cno-of-reg", logic.MustQuery(logic.Vars("cno"), nil, logic.Ex(logic.Vars("title"), logic.R("Reg", cno, title))),
			reg2, 0},
		{"tau1-prereq", tau1PrereqQuery(), reg1, 0},
		{"tau1-text", logic.MustQuery(logic.Vars("c"), nil, logic.R("Reg", logic.Var("c"))), reg1, 0},
		{"anti-join", logic.MustQuery(logic.Vars("c", "t"), nil,
			logic.Ex(logic.Vars("d"), logic.Conj(logic.R("course", logic.Var("c"), logic.Var("t"), logic.Var("d")),
				&logic.Not{F: logic.R("prereq", logic.Var("c"), logic.Var("c"))}))),
			reg1, 0},
		{"neq-unbound", logic.MustQuery(logic.Vars("c", "y"), nil,
			logic.Conj(logic.R("Reg", logic.Var("c")), logic.NeqT(logic.Var("y"), logic.Const("a")))),
			reg1, 1},
		{"forall", logic.MustQuery(logic.Vars("c"), nil,
			logic.Conj(logic.R("Reg", logic.Var("c")),
				logic.All(logic.Vars("y"), logic.Disj(&logic.Not{F: logic.R("prereq", logic.Var("c"), logic.Var("y"))},
					logic.R("Reg", logic.Var("y")))))),
			reg1, 1},
		{"or", logic.MustQuery(logic.Vars("c", "y"), nil,
			logic.Disj(logic.R("prereq", logic.Var("c"), logic.Var("y")), logic.R("Reg", logic.Var("c")))),
			reg1, 1},
	}
	inst := prereqInstance(20)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := planFor(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			env := &domainCounter{Env: NewEnv(inst).WithRelation("Reg", tc.reg)}
			got, err := p.Eval(env)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EvalQueryNaive(tc.q, env.Env)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("plan %s, naive %s", got, want)
			}
			if env.calls != tc.calls {
				t.Fatalf("Domain called %d times, want %d", env.calls, tc.calls)
			}
		})
	}
}
