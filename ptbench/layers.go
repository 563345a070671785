package main

import (
	"fmt"
	"sort"
	"time"
)

func meanInt(xs []int) float64 {
	t := 0
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(max(len(xs), 1))
}

// layerMetrics derives the per-layer metrics from the replay's spans and
// counters. httpP50 is the untraced publish median of the closed loop,
// printed next to the sum of layer self times.
func layerMetrics(rp *replay, res *result, httpP50 time.Duration) {
	spans := rp.tr.spans
	perRound := func(name string) (time.Duration, int) {
		ds := durations(spans, name)
		return sum(ds) / setupRounds, len(ds)
	}
	d, n := perRound("parser.spec")
	res.add("parser.spec_ms", ms(d), "ms", n)
	d, n = perRound("parser.db")
	res.add("parser.db_ms", ms(d), "ms", n)
	d, n = perRound("plan.compile")
	res.add("plan.compile_us", us(d), "us", n)
	res.add("plan.fallbacks", float64(rp.fallbacks), "count", n/setupRounds)

	p50 := func(name string) (float64, int) {
		ds := durations(spans, name)
		return ms(quantile(ds, 0.5)), len(ds)
	}
	pubs := len(rp.outBytes)
	v, n := p50("serve.pair")
	res.add("serve.pair_ms", v, "ms", n)
	res.add("serve.replay_records", float64(rp.replayed)/float64(max(pubs, 1)), "count", pubs)

	v, n = p50("pt.run")
	res.add("pt.run_ms", v, "ms", n)
	res.add("pt.memo_hit_frac", float64(rp.hits)/float64(max(rp.hits+rp.misses, 1)), "frac", int(rp.hits+rp.misses))
	v, n = p50("pt.run_cold")
	res.add("pt.run_cold_ms", v, "ms", n)
	var nodes, queries, shared []int
	for _, st := range rp.cold {
		nodes = append(nodes, st.Nodes)
		queries = append(queries, st.QueriesRun)
		shared = append(shared, st.SubtreesShared)
	}
	// Means, not medians: the specs differ in size, and only tau2v shares
	// subtrees.
	res.add("pt.nodes", meanInt(nodes), "count", len(nodes))
	res.add("pt.queries_run", meanInt(queries), "count", len(queries))
	res.add("pt.subtrees_shared", meanInt(shared), "count", len(shared))
	rules := durations(spans, "eval.rule")
	res.add("eval.rule_us_p50", us(quantile(rules, 0.5)), "us", len(rules))
	res.add("eval.rule_us_p99", us(quantile(rules, 0.99)), "us", len(rules))
	ruleEval, n := p50("eval.rules")
	res.add("eval.rule_eval_ms", ruleEval, "ms", n)
	// Each analysed state has one cold run and one rule pass.
	colds, evals := durations(spans, "pt.run_cold"), durations(spans, "eval.rules")
	expand := make([]time.Duration, len(colds))
	for i := range colds {
		expand[i] = colds[i] - evals[i]
	}
	res.add("pt.expand_self_ms", ms(quantile(expand, 0.5)), "ms", len(expand))

	v, n = p50("xmltree.serialize")
	res.add("xmltree.serialize_ms", v, "ms", n)
	v, n = p50("xmltree.splice")
	res.add("xmltree.splice_ms", v, "ms", n)
	res.add("xmltree.bytes", meanInt(rp.outBytes), "bytes", pubs)

	v, n = p50("incr.rebuild")
	res.add("incr.rebuild_ms", v, "ms", n)
	if applies := durations(spans, "incr.apply"); len(applies) > 0 {
		res.add("incr.apply_ms_p50", ms(quantile(applies, 0.5)), "ms", len(applies))
		if len(applies) >= minP99Samples {
			res.add("incr.apply_ms_p99", ms(quantile(applies, 0.99)), "ms", len(applies))
		}
		full, q := 0, 0
		for _, rep := range rp.reports {
			q += rep.QueriesRun
			if rep.FullRebuild {
				full++
			}
		}
		res.add("incr.full_rebuild_frac", float64(full)/float64(len(rp.reports)), "frac", len(rp.reports))
		res.add("incr.queries_per_delta", float64(q)/float64(len(rp.reports)), "count", len(rp.reports))
	}
	if appends := durations(spans, "wal.append"); len(appends) > 0 {
		res.add("wal.append_us_p50", us(quantile(appends, 0.5)), "us", len(appends))
		if len(appends) >= minP99Samples {
			res.add("wal.append_us_p99", us(quantile(appends, 0.99)), "us", len(appends))
		}
		res.add("wal.fsyncs_per_mutate", float64(rp.walMetrics.Fsyncs)/float64(max(rp.walMetrics.Appended, 1)), "count", int(rp.walMetrics.Appended))
	}
	v, n = p50("wal.replay")
	res.add("wal.replay_ms", v, "ms", n)

	// Self time by layer, per operation, over the traced operations.
	for _, root := range []string{"serve.publish", "serve.mutate"} {
		self, ops := layerSelf(spans, root)
		if ops == 0 {
			continue
		}
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var total time.Duration
		for _, l := range layers {
			res.add(fmt.Sprintf("self.%s.%s_ms", root[len("serve."):], l), ms(self[l]), "ms", ops)
			total += self[l]
		}
		if root == "serve.publish" {
			res.add("serve.self_ms", ms(self["serve"]), "ms", ops)
			res.add("trace.self_sum_ms", ms(total), "ms", ops)
		} else {
			res.add("trace.mutate_self_sum_ms", ms(total), "ms", ops)
		}
	}
	// The overhead compares traced and untraced publishes of the same
	// spec, weighted by how often each spec was traced: the specs' costs
	// differ far more than tracing costs.
	var overhead time.Duration
	var traced, untraced []time.Duration
	for spec, ds := range rp.pubTraced {
		overhead += time.Duration(len(ds)) * (quantile(ds, 0.5) - quantile(rp.pubUntraced[spec], 0.5))
		traced = append(traced, ds...)
		untraced = append(untraced, rp.pubUntraced[spec]...)
	}
	res.add("trace.overhead_ms", ms(overhead)/float64(max(len(traced), 1)), "ms", len(traced))
	res.notes = append(res.notes,
		fmt.Sprintf("publish p50: traced replay %.4f ms (n=%d), untraced replay %.4f ms (n=%d), untraced HTTP %.4f ms; mean sum of layer self times %.4f ms per traced publish",
			ms(quantile(traced, 0.5)), len(traced), ms(quantile(untraced, 0.5)), len(untraced), ms(httpP50), mustGet(res, "trace.self_sum_ms")))
}

func mustGet(res *result, name string) float64 {
	m, _ := res.get(name)
	return m.value
}
