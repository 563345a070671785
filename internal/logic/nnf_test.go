package logic

import "testing"

// TestNNFShape pins the rewrite's output shape: negation moves through
// connectives and quantifiers and flips (in)equalities.
func TestNNFShape(t *testing.T) {
	x := Var("x")
	// ¬(A(x) ∧ ¬E(x,x)) → ¬A(x) ∨ E(x,x)
	f := &Not{F: Conj(R("A", x), &Not{F: R("E", x, x)})}
	if g := NNF(f); g.String() != "(!A(x) | E(x,x))" {
		t.Fatalf("NNF = %s", g)
	}
	// ¬∀x ¬A(x) → ∃x A(x)
	f2 := &Not{F: All([]Var{x}, &Not{F: R("A", x)})}
	if g2 := NNF(f2); g2.String() != "exists x. A(x)" {
		t.Fatalf("NNF = %s", g2)
	}
	// (In)equalities flip.
	f3 := &Not{F: EqT(x, Const("c"))}
	if g3 := NNF(f3); g3.String() != "x!='c'" {
		t.Fatalf("NNF = %s", g3)
	}
}
