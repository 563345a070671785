package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Shape sizes a generated registrar database: Levels × Width courses,
// Fan prereq edges from every course into the next level.
type Shape struct {
	Levels, Width, Fan int
}

// defaultShape is the database every workload publishes. Its working
// set fits the 65 536-entry query memo, so warm publishes hit it fully.
var defaultShape = Shape{Levels: 3, Width: 20, Fan: 2}

// nonCSShare is the share of courses outside the CS department: tau1
// and tau3 select on the department, so these rows are filtered work.
const nonCSShare = 0.25

// dbShare is the share of course titles that read 'DB', the title
// tau3's negated subformula looks for.
const dbShare = 0.15

var titles = []string{"Compilers", "Algorithms", "Databases", "Logic", "Networks", "Graphics", "Systems", "Theory", "Security", "Robotics"}

// DB is one generated database: its source text plus what the mutation
// generator needs to pick tuples that are absent from it.
type DB struct {
	Name    string
	Src     string
	courses [][]string // per level, course numbers
	prereqs map[[2]string]bool
}

func courseNo(level, i int) string { return fmt.Sprintf("L%dC%02d", level, i) }

// GenDB builds a registrar-schema database from seed. Every level has
// the same number of non-CS courses and of 'DB' titles, at seeded
// positions, so databases of different seeds differ in which courses
// and edges they hold but not in how much work tau1 and tau3 do.
func GenDB(name string, seed int64, sh Shape) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := &DB{Name: name, prereqs: map[[2]string]bool{}}
	var b strings.Builder
	nonCS := int(float64(sh.Width)*nonCSShare + 0.5)
	dbTitled := int(float64(sh.Width)*dbShare + 0.5)
	for l := 0; l < sh.Levels; l++ {
		var level []string
		deptOf, titleOf := rng.Perm(sh.Width), rng.Perm(sh.Width)
		for i := 0; i < sh.Width; i++ {
			cno := courseNo(l, i)
			level = append(level, cno)
			title := titles[rng.Intn(len(titles))]
			if titleOf[i] < dbTitled {
				title = "DB"
			}
			dept := "CS"
			if deptOf[i] < nonCS {
				dept = []string{"Math", "EE"}[deptOf[i]%2]
			}
			fmt.Fprintf(&b, "course(%s, %s, %s)\n", cno, title, dept)
		}
		db.courses = append(db.courses, level)
	}
	for l := 0; l+1 < sh.Levels; l++ {
		next := db.courses[l+1]
		for _, c := range db.courses[l] {
			for _, j := range rng.Perm(len(next))[:min(sh.Fan, len(next))] {
				db.prereqs[[2]string{c, next[j]}] = true
				fmt.Fprintf(&b, "prereq(%s, %s)\n", c, next[j])
			}
		}
	}
	db.Src = b.String()
	return db
}

// Mutation is one single-tuple delta.
type Mutation struct {
	DB     string
	Insert bool
	Rel    string
	Tuple  []string
}

// Body is the /mutate request body; the spec only anchors validation.
func (m Mutation) Body() []byte {
	op := "delete"
	if m.Insert {
		op = "insert"
	}
	return []byte(fmt.Sprintf(`{"spec":"tau1","db":%q,"ops":[{"op":%q,"rel":%q,"tuple":[%s]}]}`,
		m.DB, op, m.Rel, quoteAll(m.Tuple)))
}

func quoteAll(vals []string) string {
	q := make([]string, len(vals))
	for i, v := range vals {
		q[i] = fmt.Sprintf("%q", v)
	}
	return strings.Join(q, ",")
}

// poolSize is how many candidate tuples per relation a mutation stream
// inserts from. A run thus revisits a bounded set of database states,
// and the reference evaluator runs once per state rather than once per
// publish. The server caches nothing by content, so every mutation
// still costs it a full invalidation.
const poolSize = 8

// Mutator yields a seeded stream of mutations over one database that
// alternates inserting a tuple absent from it and deleting that tuple
// again, so the database size stays constant. Inserts alternate between
// a new CS course and a new prereq edge into the next level.
type Mutator struct {
	rng     *rand.Rand
	courses []Mutation
	prereqs []Mutation
	n       int
	cur     Mutation
}

// NewMutator starts a mutation stream over db.
func NewMutator(db *DB, seed int64) *Mutator {
	m := &Mutator{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < poolSize; i++ {
		title := titles[m.rng.Intn(len(titles))]
		m.courses = append(m.courses, Mutation{DB: db.Name, Insert: true, Rel: "course",
			Tuple: []string{fmt.Sprintf("N%02d", i), title, "CS"}})
	}
	levels := db.courses
	for seen := map[[2]string]bool{}; len(m.prereqs) < poolSize; {
		l := m.rng.Intn(len(levels) - 1)
		e := [2]string{levels[l][m.rng.Intn(len(levels[l]))], levels[l+1][m.rng.Intn(len(levels[l+1]))]}
		if !db.prereqs[e] && !seen[e] {
			seen[e] = true
			m.prereqs = append(m.prereqs, Mutation{DB: db.Name, Insert: true, Rel: "prereq", Tuple: e[:]})
		}
	}
	return m
}

// Next returns the stream's next mutation.
func (m *Mutator) Next() Mutation {
	defer func() { m.n++ }()
	switch {
	case m.n%2 == 1:
		d := m.cur
		d.Insert = false
		return d
	case m.n%4 == 0:
		m.cur = m.courses[m.rng.Intn(poolSize)]
	default:
		m.cur = m.prereqs[m.rng.Intn(poolSize)]
	}
	return m.cur
}

// Publish is one publish request. Subtree asks for the subtree cache
// with no node budget: the server's default node budget would
// downgrade it to the query cache.
type Publish struct {
	Spec, DB string
	Subtree  bool
}

// Body is the /publish request body.
func (p Publish) Body() []byte {
	if p.Subtree {
		return []byte(fmt.Sprintf(`{"spec":%q,"db":%q,"cache":"subtree","limits":{"max_nodes":-1}}`, p.Spec, p.DB))
	}
	return []byte(fmt.Sprintf(`{"spec":%q,"db":%q}`, p.Spec, p.DB))
}

// readMix is the mix of publish-read: tau1 on the default query cache,
// tau2v on the subtree cache (virtual splice and DAG sharing), tau3 for
// FO negation.
var readMix = []Publish{{Spec: "tau1"}, {Spec: "tau2v", Subtree: true}, {Spec: "tau3"}}

// rwMix is the mix read after writes: the live view's spec twice as
// often as tau3, so the median publish falls inside tau1's latencies
// rather than in the gap between the two specs'.
var rwMix = []Publish{{Spec: "tau1"}, {Spec: "tau1"}, {Spec: "tau3"}}

// Publisher yields a seeded stream of publishes of db. The mix is drawn
// in blocks, each a seeded permutation of the whole mix, so every run
// publishes each spec in the same proportion.
type Publisher struct {
	rng   *rand.Rand
	mix   []Publish
	block []int
}

// NewPublisher starts a publish stream.
func NewPublisher(seed int64, mix []Publish) *Publisher {
	return &Publisher{rng: rand.New(rand.NewSource(seed)), mix: mix}
}

// Next returns the stream's next publish of db.
func (p *Publisher) Next(db string) Publish {
	if len(p.block) == 0 {
		p.block = p.rng.Perm(len(p.mix))
	}
	pub := p.mix[p.block[0]]
	p.block = p.block[1:]
	pub.DB = db
	return pub
}
