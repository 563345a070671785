package pt

import (
	"fmt"

	"ptx/internal/eval"
	"ptx/internal/relation"
	"ptx/internal/runctl"
)

// ChildSpec is one ordered child a configuration generates: the exact
// (state, tag, register) triple Step materializes as a tree node.
type ChildSpec struct {
	State string
	Tag   string
	Reg   *relation.Relation
}

// ExpandConfig evaluates the rule for (state, tag) with register reg
// against base (an Env over the database instance) and returns the
// ordered child specs, plus the number of queries actually evaluated
// (memo hits are free). A missing or empty rule yields nil specs. The
// ancestor stop condition is the CALLER's job — ExpandConfig only runs
// the rule, which is what incremental repair needs when it re-derives
// the children of a node whose rule queries read a mutated relation.
func (t *Transducer) ExpandConfig(state, tag string, reg *relation.Relation, base *eval.Env, memo *eval.Memo) ([]ChildSpec, int, error) {
	return t.ruleStep(state, tag, reg, base, memo, nil)
}

// ruleStep is the one rule step of the paper's ⇒ relation: it evaluates
// the rule of configuration (state, tag, reg) into its ordered child
// specs and reports how many queries it evaluated. A memo hit is shared
// by reference and was stored only after a successful evaluation, so it
// charges neither ctl's query budget nor its fault plan; a miss charges
// ctl (nil imposes nothing), evaluates, and stores the result. Storing
// before the caller commits the step is sound: determinism makes the
// entry valid whether or not the step completes.
func (t *Transducer) ruleStep(state, tag string, reg *relation.Relation, base *eval.Env, memo *eval.Memo, ctl *runctl.Controller) ([]ChildSpec, int, error) {
	rule, ok := t.Rule(state, tag)
	if !ok || len(rule.Items) == 0 {
		return nil, 0, nil
	}
	env := base.WithRelation(RegRel, reg)
	var regFP string
	if memo != nil {
		regFP = reg.Key()
	}
	var specs []ChildSpec
	queries := 0
	for _, it := range rule.Items {
		var result *relation.Relation
		if memo != nil {
			result, _ = memo.Get(it.Query, regFP)
		}
		if result == nil {
			if err := ctl.Query(); err != nil {
				return nil, queries, err
			}
			queries++
			rel, err := eval.EvalQuery(it.Query, env)
			if err != nil {
				return nil, queries, fmt.Errorf("pt %s: rule (%s,%s) item (%s,%s): %w",
					t.Name, rule.State, rule.Tag, it.State, it.Tag, err)
			}
			if memo != nil {
				memo.Put(it.Query, regFP, rel)
			}
			result = rel
		}
		groups, err := groupByPrefix(result, len(it.Query.GroupVars))
		if err != nil {
			return nil, queries, fmt.Errorf("pt %s: rule (%s,%s) item (%s,%s): %w",
				t.Name, rule.State, rule.Tag, it.State, it.Tag, err)
		}
		for _, g := range groups {
			specs = append(specs, ChildSpec{State: it.State, Tag: it.Tag, Reg: g})
		}
	}
	return specs, queries, nil
}
