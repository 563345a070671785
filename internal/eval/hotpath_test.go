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
