package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"ptx/internal/incr"
)

// pubRec is one publish as the client saw it. The database may have
// taken mutations while it was in flight, so the oracle accepts the
// output of any state from lo to hi mutations applied.
type pubRec struct {
	Publish
	lo, hi int
	sum    [32]byte
}

// dbLog is the client-side history of one database's mutations: the
// deltas in commit order, how many were sent and how many acked.
type dbLog struct {
	muts  []Mutation
	sent  int
	acked int
}

// recorder collects everything the closed loop observes. All fields are
// guarded by mu.
type recorder struct {
	mu        sync.Mutex
	pubLat    []time.Duration
	bySpec    map[string][]time.Duration
	mutLat    []time.Duration
	pubs      []pubRec
	logs      map[string]*dbLog
	attempted int
	failed    int
	errs      []string
	sendTimes []time.Time // per mutation of the watched database
}

func newRecorder(dbs []*DB) *recorder {
	r := &recorder{logs: map[string]*dbLog{}, bySpec: map[string][]time.Duration{}}
	for _, db := range dbs {
		r.logs[db.Name] = &dbLog{}
	}
	return r
}

func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// window returns the mutation count of db as of now: acked (lo) and
// sent (hi).
func (r *recorder) window(db string) (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lg := r.logs[db]
	return lg.acked, lg.sent
}

// publish sends one publish and records it for the oracle. timed adds
// its latency to the publish samples.
func (r *recorder) publish(c *http.Client, url string, p Publish, timed bool) (string, error) {
	lo, _ := r.window(p.DB)
	start := time.Now()
	status, nodeID, body, err := post(c, url+"/publish", p.Body())
	lat := time.Since(start)
	_, hi := r.window(p.DB)
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil || status != http.StatusOK {
		r.fail("publish %s/%s: status %d err %v: %.200s", p.Spec, p.DB, status, err, body)
		return nodeID, fmt.Errorf("publish %s/%s: status %d: %v", p.Spec, p.DB, status, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if timed {
		r.pubLat = append(r.pubLat, lat)
		r.bySpec[p.Spec] = append(r.bySpec[p.Spec], lat)
	}
	r.pubs = append(r.pubs, pubRec{Publish: p, lo: lo, hi: hi, sum: sha256.Sum256(body)})
	return nodeID, nil
}

// mutate sends one mutation and checks the acked sequence number.
func (r *recorder) mutate(c *http.Client, url string, m Mutation, watched bool) error {
	r.mu.Lock()
	lg := r.logs[m.DB]
	lg.sent++
	lg.muts = append(lg.muts, m)
	want := lg.sent
	if watched {
		r.sendTimes = append(r.sendTimes, time.Now())
	}
	r.attempted++
	r.mu.Unlock()
	start := time.Now()
	status, _, body, err := post(c, url+"/mutate", m.Body())
	lat := time.Since(start)
	if err != nil || status != http.StatusOK {
		r.fail("mutate %s: status %d err %v: %.200s", m.DB, status, err, body)
		return fmt.Errorf("mutate %s: status %d: %v", m.DB, status, err)
	}
	var ack struct {
		Seq int `json:"seq"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Seq != want {
		r.fail("mutate %s: acked seq %d, want %d (%v)", m.DB, ack.Seq, want, err)
		return fmt.Errorf("mutate %s: bad ack", m.DB)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lg.acked++
	r.mutLat = append(r.mutLat, lat)
	return nil
}

// watcher holds the SSE change feed of the tau1 live view open on its
// own connection and timestamps every change event. The view was built
// after base mutations, so the event of version v reports mutation
// base+v-2 (the initial build is version 1).
type watcher struct {
	base   int
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	reports []*incr.Report
	recv    []time.Time
	err     error
}

// startWatch opens GET /watch as an SSE stream and returns once the
// server has created the live view (the response headers are in).
func startWatch(c *http.Client, url, spec, db string, base int) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/watch?spec=%s&db=%s", url, spec, db), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	w := &watcher{base: base, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				now := time.Now()
				var rep incr.Report
				err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rep)
				w.mu.Lock()
				if event != "change" || err != nil {
					w.err = fmt.Errorf("watch: unexpected %q event (%v)", event, err)
				} else {
					w.reports = append(w.reports, &rep)
					w.recv = append(w.recv, now)
				}
				w.mu.Unlock()
			}
		}
	}()
	return w, nil
}

// count returns how many change events have arrived.
func (w *watcher) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.reports)
}

// stop waits up to a second for want events, then closes the stream.
func (w *watcher) stop(want int) {
	for deadline := time.Now().Add(time.Second); w.count() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	w.cancel()
	<-w.done
}

// lags pairs each change event with the send time of the mutation that
// caused it.
func (w *watcher) lags(sendTimes []time.Time) []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []time.Duration
	for i, rep := range w.reports {
		if k := w.base + int(rep.Version) - 2; k >= w.base && k < len(sendTimes) {
			out = append(out, w.recv[i].Sub(sendTimes[k]))
		}
	}
	return out
}

// traffic holds a workload's seeded request streams. The measured phase
// runs in segments with node restarts between them, and every segment
// continues the same streams; the replay draws from them too.
type traffic struct {
	w    workload
	db0  string
	read [2]*Publisher // publish-read, one per connection
	pubs *Publisher    // live-rw and cluster-rw
	muts *Mutator      // live-rw
	next func() Mutation
}

func newTraffic(w workload, dbs []*DB, seed int64) *traffic {
	t := &traffic{w: w, db0: dbs[0].Name, pubs: NewPublisher(seed*7, w.mix)}
	t.read = [2]*Publisher{t.pubs, NewPublisher(seed*7+1, w.mix)}
	t.muts = NewMutator(dbs[0], seed*11)
	// cluster-rw: each mutation goes to a seeded choice of database,
	// each database with its own Mutator.
	muts := make([]*Mutator, len(dbs))
	for i, db := range dbs {
		muts[i] = NewMutator(db, seed*11+int64(i))
	}
	pick := rand.New(rand.NewSource(seed * 13))
	t.next = func() Mutation { return muts[pick.Intn(len(muts))].Next() }
	return t
}

// run drives the workload's client connections at e until dur elapses.
// Each connection sends its next request only after the previous one
// has completed. It returns the wall time the connections ran.
func (t *traffic) run(e *env, rec *recorder, dur time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	conn := func(f func(*http.Client)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			f(c)
		}()
	}
	switch t.w.name {
	case "publish-read":
		for _, pubs := range t.read {
			conn(func(c *http.Client) {
				for time.Now().Before(deadline) {
					_, _ = rec.publish(c, e.front, pubs.Next(t.db0), true)
				}
			})
		}
	case "live-rw":
		conn(func(c *http.Client) {
			for time.Now().Before(deadline) {
				if rec.mutate(c, e.front, t.muts.Next(), true) != nil {
					return // the client-side history no longer matches the server's
				}
				_, _ = rec.publish(c, e.front, t.pubs.Next(t.db0), true)
			}
		})
	case "cluster-rw":
		// The connections take turns: connection 2 mutates a database,
		// connection 1 then publishes it, as in live-rw.
		turn, done := make(chan Publish), make(chan struct{})
		conn(func(c *http.Client) {
			for p := range turn {
				_, _ = rec.publish(c, e.front, p, true)
				done <- struct{}{}
			}
		})
		conn(func(c *http.Client) {
			defer close(turn)
			for time.Now().Before(deadline) {
				m := t.next()
				if rec.mutate(c, e.front, m, false) != nil {
					return
				}
				turn <- t.pubs.Next(m.DB)
				<-done
			}
		})
	}
	wg.Wait()
	return time.Since(start)
}
