package main

import (
	"fmt"
	"runtime"
	"time"
)

// restarts runs restart cycles first..first+cycles-1 between segments of
// the measured phase; cycle i publishes the (i mod dbs)th database. On a
// single node each cycle stops the node and times its restart (registry
// rebuild, wal.Open, AttachWAL, listen) until the first successful
// publish. Behind the coordinator each cycle first stops the owner of a
// warm pair and times the next routed publish of that pair (failover),
// then restarts the owner the same way (recovery) and joins it back.
func restarts(s *system, cycles, first int) (recovery, failover []time.Duration, err error) {
	c := newClient()
	defer c.CloseIdleConnections()
	for i := first; i < first+cycles; i++ {
		p := Publish{Spec: "tau1", DB: s.dbs[i%len(s.dbs)].Name}
		n := s.env.nodes[0]
		if s.env.coord != nil {
			owner, err := s.rec.publish(c, s.env.front, p, false)
			if err != nil {
				return nil, nil, err
			}
			if n = s.env.node(owner); n == nil {
				return nil, nil, fmt.Errorf("publish served by unknown node %q", owner)
			}
			n.stop()
			start := time.Now()
			if _, err := s.rec.publish(c, s.env.front, p, false); err != nil {
				return nil, nil, fmt.Errorf("failover: %w", err)
			}
			failover = append(failover, time.Since(start))
		} else {
			n.stop()
		}
		// A restarted process starts with an empty heap; collecting the
		// stopped node's garbage first keeps the previous segment's
		// allocation from deciding when a collection lands in recovery.
		runtime.GC()
		start := time.Now()
		if err := n.start(); err != nil {
			return nil, nil, err
		}
		dc := newClient()
		_, err := s.rec.publish(dc, n.url, p, false)
		dc.CloseIdleConnections()
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: %w", err)
		}
		recovery = append(recovery, time.Since(start))
		if s.env.coord != nil {
			if err := s.env.coord.Join(n.id, n.url); err != nil {
				return nil, nil, err
			}
		} else {
			s.env.front = n.url
		}
	}
	return recovery, failover, nil
}

// measureHop alternates the same publish through the coordinator and
// straight to the node that served it, and reports the difference of
// the medians as the coordinator's hop. The first round warms every
// pair and is not counted.
func measureHop(s *system, res *result) error {
	cc, dc := newClient(), newClient()
	defer cc.CloseIdleConnections()
	defer dc.CloseIdleConnections()
	var routed, direct []time.Duration
	deadline := time.Now().Add(hopBudget)
	for i := 0; i < len(s.dbs) || time.Now().Before(deadline); i++ {
		p := Publish{Spec: "tau1", DB: s.dbs[i%len(s.dbs)].Name}
		start := time.Now()
		owner, err := s.rec.publish(cc, s.env.front, p, false)
		if err != nil {
			return err
		}
		viaCoord := time.Since(start)
		n := s.env.node(owner)
		if n == nil {
			return fmt.Errorf("publish served by unknown node %q", owner)
		}
		start = time.Now()
		if _, err := s.rec.publish(dc, n.url, p, false); err != nil {
			return err
		}
		if i >= len(s.dbs) {
			routed = append(routed, viaCoord)
			direct = append(direct, time.Since(start))
		}
	}
	res.add("cluster.hop_ms", ms(quantile(routed, 0.5))-ms(quantile(direct, 0.5)), "ms", len(routed))
	return nil
}

// verify checks, outside any timed phase, every publish the clients and
// the replay recorded against the reference output, and the live view's
// change events and final snapshot against a shadow view.
func verify(s *system, rp *replay, watched bool, feed []*watcher) (int, []string, error) {
	o, err := newOracle(s.specs, s.dbs)
	if err != nil {
		return 0, nil, err
	}
	logs := map[string][]Mutation{}
	for name, lg := range s.rec.logs {
		logs[name] = lg.muts
	}
	bad, msgs, err := o.check(s.rec.pubs, logs)
	if err != nil {
		return 0, nil, err
	}
	add := func(b int, m []string, err error) error {
		bad += b
		msgs = append(msgs, m...)
		return err
	}
	if watched {
		db := s.dbs[0].Name
		if err := add(o.checkView("tau1", db, logs[db], feed, 1_000_000)); err != nil {
			return 0, nil, err
		}
	}
	if rp != nil {
		if err := add(o.check(rp.pubs, rp.logs)); err != nil {
			return 0, nil, err
		}
	}
	return bad, msgs, nil
}
