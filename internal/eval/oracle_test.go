package eval

import (
	"math/rand"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// randomFO builds a random FO formula of bounded depth over relations
// A(1) and E(2) with variables x, y, z.
func randomFO(rng *rand.Rand, depth int) logic.Formula {
	vars := []logic.Var{"x", "y", "z"}
	v := func() logic.Var { return vars[rng.Intn(len(vars))] }
	term := func() logic.Term {
		if rng.Intn(4) == 0 {
			return logic.Const(value.Of(rng.Intn(3)))
		}
		return v()
	}
	if depth == 0 {
		switch rng.Intn(4) {
		case 0:
			return logic.R("A", term())
		case 1:
			return logic.R("E", term(), term())
		case 2:
			return logic.EqT(term(), term())
		default:
			return logic.NeqT(term(), term())
		}
	}
	switch rng.Intn(6) {
	case 0:
		return &logic.And{L: randomFO(rng, depth-1), R: randomFO(rng, depth-1)}
	case 1:
		return &logic.Or{L: randomFO(rng, depth-1), R: randomFO(rng, depth-1)}
	case 2:
		return &logic.Not{F: randomFO(rng, depth-1)}
	case 3:
		return logic.Ex([]logic.Var{v()}, randomFO(rng, depth-1))
	case 4:
		return logic.All([]logic.Var{v()}, randomFO(rng, depth-1))
	default:
		return randomFO(rng, 0)
	}
}

// TestOptimizedMatchesNaive is the key property: the plan-backed Eval
// agrees with the reference evaluator (EvalNaive) on random FO formulas
// and instances.
func TestOptimizedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
	for trial := 0; trial < 300; trial++ {
		inst := relation.NewInstance(s)
		for k := 0; k < rng.Intn(4); k++ {
			inst.Add("A", string(value.Of(rng.Intn(3))))
		}
		for k := 0; k < rng.Intn(5); k++ {
			inst.Add("E", string(value.Of(rng.Intn(3))), string(value.Of(rng.Intn(3))))
		}
		inst.Add("A", "0") // keep the domain nonempty
		f := randomFO(rng, 1+rng.Intn(2))
		env := NewEnv(inst)
		fast, err1 := Eval(f, env)
		slow, err2 := EvalNaive(f, env)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v on %s", trial, err1, err2, f)
		}
		if err1 != nil {
			continue
		}
		// Align columns before comparing.
		if len(fast.Vars) != len(slow.Vars) {
			t.Fatalf("trial %d: var sets differ: %v vs %v on %s", trial, fast.Vars, slow.Vars, f)
		}
		idx := map[logic.Var]int{}
		for i, v := range slow.Vars {
			idx[v] = i
		}
		cols := make([]int, len(fast.Vars))
		for i, v := range fast.Vars {
			c, ok := idx[v]
			if !ok {
				t.Fatalf("trial %d: var %s missing in naive result on %s", trial, v, f)
			}
			cols[i] = c
		}
		aligned := slow.Rel.Project(cols...)
		if !fast.Rel.Equal(aligned) {
			t.Fatalf("trial %d: %s\n plan  %s\n naive %s\n instance %s",
				trial, f, fast.Rel, aligned, inst)
		}
	}
}
