package logic

// NNF converts a formula to negation normal form: negation is pushed
// through ∧ ∨ ¬ ∃ ∀ and (in)equalities, stopping at relation atoms and
// fixpoints. Evaluating the NNF avoids complementing large
// intermediate relations: a ¬ in front of an 8-variable conjunction
// costs |adom|⁸ as a complement but only a small anti-join once pushed
// inward. The compiled-plan layer (plan) compiles from NNF.
func NNF(f Formula) Formula {
	switch g := f.(type) {
	case *Not:
		return Negate(g.F)
	case *And:
		return &And{L: NNF(g.L), R: NNF(g.R)}
	case *Or:
		return &Or{L: NNF(g.L), R: NNF(g.R)}
	case *Exists:
		return &Exists{Bound: g.Bound, F: NNF(g.F)}
	case *Forall:
		return &Forall{Bound: g.Bound, F: NNF(g.F)}
	default:
		return f
	}
}

// Negate returns an NNF formula equivalent to ¬f.
func Negate(f Formula) Formula {
	switch g := f.(type) {
	case *Truth:
		return &Truth{B: !g.B}
	case *Eq:
		return &Neq{L: g.L, R: g.R}
	case *Neq:
		return &Eq{L: g.L, R: g.R}
	case *Not:
		return NNF(g.F)
	case *And:
		return &Or{L: Negate(g.L), R: Negate(g.R)}
	case *Or:
		return &And{L: Negate(g.L), R: Negate(g.R)}
	case *Exists:
		return &Forall{Bound: g.Bound, F: Negate(g.F)}
	case *Forall:
		return &Exists{Bound: g.Bound, F: Negate(g.F)}
	default:
		// Atoms and fixpoints: negation stays in front.
		return &Not{F: f}
	}
}

// FlattenConj decomposes nested conjunctions into a list.
func FlattenConj(f Formula, out *[]Formula) {
	if g, ok := f.(*And); ok {
		FlattenConj(g.L, out)
		FlattenConj(g.R, out)
		return
	}
	*out = append(*out, f)
}
