package eval

import (
	"context"
	"errors"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/value"
)

func TestMemoHitMissEvict(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	env := NewEnv(inst)
	q1 := logic.MustQuery(nil, []logic.Var{x, y}, logic.R("E", x, y))
	q2 := logic.MustQuery(nil, []logic.Var{x}, logic.Ex([]logic.Var{y}, logic.R("E", x, y)))

	m := NewMemo(1) // capacity 1 forces eviction between q1 and q2
	r1a, err := EvalQueryMemo(q1, env, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalQueryMemo(q2, env, m); err != nil {
		t.Fatal(err)
	}
	// q1 was evicted by q2; re-evaluating is a miss that re-stores.
	r1b, err := EvalQueryMemo(q1, env, m)
	if err != nil {
		t.Fatal(err)
	}
	if !r1a.Equal(r1b) {
		t.Fatal("re-evaluated result differs")
	}
	hits, misses, evictions := m.Stats()
	if hits != 0 || misses != 3 || evictions != 2 {
		t.Errorf("stats = %d/%d/%d, want 0 hits, 3 misses, 2 evictions", hits, misses, evictions)
	}

	// With room for both, the second round is all hits — and returns the
	// identical relation by reference.
	m = NewMemo(0)
	first, _ := EvalQueryMemo(q1, env, m)
	second, err := EvalQueryMemo(q1, env, m)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("hit should return the cached relation by reference")
	}
	if hits, misses, _ := m.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
}

// TestMemoDistinguishesRegisters: the fingerprint must separate
// environments whose extra relations differ, and identify ones whose
// extra relations are Equal regardless of insertion order.
func TestMemoDistinguishesRegisters(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	q := logic.MustQuery(nil, []logic.Var{x},
		logic.Ex([]logic.Var{y}, logic.Conj(logic.R("Reg", y), logic.R("E", y, x))))

	regA := relation.New(1)
	regA.Add(value.Tuple{"a"})
	regB := relation.New(1)
	regB.Add(value.Tuple{"b"})
	m := NewMemo(0)

	ra, err := EvalQueryMemo(q, NewEnv(inst).WithRelation("Reg", regA), m)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := EvalQueryMemo(q, NewEnv(inst).WithRelation("Reg", regB), m)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Equal(rb) {
		t.Fatal("different registers must not collide in the memo")
	}
	if hits, misses, _ := m.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d/%d, want 0 hits, 2 misses", hits, misses)
	}

	// Same register contents built in a different insertion order: hit.
	regA2 := relation.New(1)
	regA2.Add(value.Tuple{"a"})
	if _, err := EvalQueryMemo(q, NewEnv(inst).WithRelation("Reg", regA2), m); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := m.Stats(); hits != 1 {
		t.Error("equal register contents must hit regardless of relation identity")
	}
}

// TestMemoErrorNotCached: a failed evaluation (here: fixpoint budget
// exhaustion) must leave no entry behind; the same key evaluated later
// under a healthy environment succeeds and stores normally.
func TestMemoErrorNotCached(t *testing.T) {
	u, v, w := logic.Var("u"), logic.Var("v"), logic.Var("w")
	body := logic.Disj(
		logic.R("E", u, v),
		logic.Ex([]logic.Var{w}, logic.Conj(logic.R("S", u, w), logic.R("E", w, v))),
	)
	fp := &logic.Fixpoint{Rel: "S", Vars: []logic.Var{u, v}, Body: body, Args: []logic.Term{x, y}}
	q := logic.MustQuery(nil, []logic.Var{x, y}, fp)
	inst := graphInstance(chainN(6)...)

	m := NewMemo(0)
	capped := NewEnv(inst).WithControl(runctl.New(context.Background(), runctl.Limits{MaxFixpointIters: 2}))
	_, err := EvalQueryMemo(q, capped, m)
	var be *runctl.ErrBudget
	if !errors.As(err, &be) {
		t.Fatalf("capped fixpoint: got %v, want budget error", err)
	}

	healthy := NewEnv(inst)
	got, err := EvalQueryMemo(q, healthy, m)
	if err != nil {
		t.Fatalf("healthy run after failed one: %v", err)
	}
	want, err := EvalQuery(q, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("result after failed attempt differs from direct evaluation")
	}
	// Both attempts were misses (the failure stored nothing), and the
	// successful one is now retrievable.
	if hits, misses, _ := m.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d/%d, want 0 hits, 2 misses", hits, misses)
	}
	if _, err := EvalQueryMemo(q, healthy, m); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := m.Stats(); hits != 1 {
		t.Error("successful result should now hit")
	}
}

var sinkMemo *Memo

// TestMemoAllocBounded: a memo's capacity is a bound, not a
// preallocation. A fresh NewMemo(0) and the table a version-drift flush
// leaves behind each cost a few hundred bytes, not a 64k-slot map.
func TestMemoAllocBounded(t *testing.T) {
	const limit = 64 << 10
	fresh := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkMemo = NewMemo(0)
		}
	}).AllocedBytesPerOp()
	if fresh >= limit {
		t.Errorf("NewMemo(0) allocates %d bytes, want < %d", fresh, limit)
	}

	inst := graphInstance([2]string{"a", "b"})
	q := logic.MustQuery(nil, []logic.Var{x, y}, logic.R("E", x, y))
	m := NewMemo(0)
	m.BindInstance(inst)
	flush := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst.Add("E", "a", "b") // present already: only the version moves
			m.Get(q, "")
		}
	}).AllocedBytesPerOp()
	if _, flushes := m.InvalidationStats(); flushes == 0 {
		t.Fatal("version drift did not flush the memo")
	}
	if flush >= limit {
		t.Errorf("a version-drift flush allocates %d bytes, want < %d", flush, limit)
	}
	t.Logf("bytes/op: NewMemo(0) %d, flush %d", fresh, flush)
}
