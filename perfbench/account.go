package main

import "strings"

// layerReport prints the per-layer figures of a traced run: the client and
// http spans of the traced phase, the replayed layers' times, self-time
// shares of the end-to-end latency, the tracing overhead, and the runtime
// deltas of the untraced phase.
func layerReport(rep *report, plain, traced *phase, recs []*layerRec, classes []opKind, notReached []string) {
	measured := func(o *op) bool { return !o.setup && o.err == nil }
	var overSubmit, overRead, overAll, handlerAll, respAll []float64
	var coordAll, coordAlloc []float64
	for _, o := range traced.ops {
		if !measured(o) {
			continue
		}
		over := ms(o.call - o.handler)
		overAll = append(overAll, over)
		if o.kind == opSubmit {
			overSubmit = append(overSubmit, over)
		} else {
			overRead = append(overRead, over)
		}
		handlerAll = append(handlerAll, ms(o.handler))
		respAll = append(respAll, float64(o.respBytes)/1024)
	}
	if len(overSubmit) > 0 {
		rep.add("client.submit_overhead_p50_ms", median(overSubmit), "ms", len(overSubmit))
	}
	if len(overRead) > 0 {
		rep.add("client.read_overhead_p50_ms", median(overRead), "ms", len(overRead))
	}
	rep.add("client.overhead_p50_ms", median(overAll), "ms", len(overAll))
	rep.add("http.p50_ms", median(handlerAll), "ms", len(handlerAll))
	rep.add("http.resp_kb", mean(respAll), "kB", len(respAll))

	// Per-op-class figures and accounting.
	var selfSum [numLayers]float64
	var e2eSum float64
	var fire, fireAlloc, adv, advAlloc, render, reportKB, walAppend, walWait []float64
	for _, k := range classes {
		var handler, resp, coord, alloc, tracedLat []float64
		var classSelf, classE2E float64
		for i, o := range traced.ops {
			if !measured(o) || o.kind != k {
				continue
			}
			tracedLat = append(tracedLat, ms(o.lat))
			handler = append(handler, ms(o.handler))
			resp = append(resp, float64(o.respBytes)/1024)
			r := recs[i]
			if !r.replayed {
				continue
			}
			coord = append(coord, us(r.t[lCoordinator]))
			alloc = append(alloc, float64(r.alloc[lCoordinator])/1024)
			self := selfTimes(o, r)
			for l, d := range self {
				selfSum[l] += ms(d)
				classSelf += ms(d)
			}
			classE2E += ms(o.lat)
			switch k {
			case opSubmit:
				fire = append(fire, us(r.t[lEngine]))
				fireAlloc = append(fireAlloc, float64(r.alloc[lEngine])/1024)
				adv = append(adv, us(r.t[lExplainer]))
				advAlloc = append(advAlloc, float64(r.alloc[lExplainer])/1024)
				walAppend = append(walAppend, us(r.t[lWAL]-r.walWait))
				walWait = append(walWait, ms(r.walWait))
			case opExplain:
				render = append(render, ms(r.t[lExplainer]))
				reportKB = append(reportKB, float64(r.reportBytes)/1024)
			}
		}
		e2eSum += classE2E
		coordAll = append(coordAll, coord...)
		coordAlloc = append(coordAlloc, alloc...)
		name := k.String()
		if len(handler) > 0 {
			rep.add("http."+name+"_p50_ms", median(handler), "ms", len(handler))
		}
		if k == opExplain || k == opTransitions {
			rep.add("http."+name+"_resp_kb", mean(resp), "kB", len(resp))
		}
		if len(coord) > 0 {
			rep.add("coordinator."+name+"_p50_us", median(coord), "us", len(coord))
			if k == opSubmit {
				q, qn := tailQuantile(len(coord))
				rep.add("coordinator.submit_"+qn+"_us", quantile(sortedCopy(coord), q), "us", len(coord))
			}
			if k == opSubmit || k == opExplain || k == opCertify {
				rep.add("coordinator."+name+"_alloc_kb", mean(alloc), "kB", len(alloc))
			}
		}
		if classE2E > 0 {
			rep.add("layers."+name+".unaccounted_share", 1-classSelf/classE2E, "share", len(coord))
		}
		// certify calls differ thirtyfold by case, so their median jumps
		// between cases; compare their means.
		if p := latencies(plain.ops, k); len(p) > 0 && len(tracedLat) > 0 {
			if k == opCertify {
				rep.add("tracing.certify_overhead_mean_ms", mean(tracedLat)-mean(p), "ms", len(tracedLat))
			} else {
				rep.add("tracing."+name+"_overhead_p50_ms", median(tracedLat)-median(p), "ms", len(tracedLat))
			}
		}
	}
	rep.add("coordinator.p50_us", median(coordAll), "us", len(coordAll))
	rep.add("coordinator.alloc_kb", mean(coordAlloc), "kB", len(coordAlloc))
	if len(fire) > 0 {
		rep.add("engine.fire_p50_us", median(fire), "us", len(fire))
		rep.add("engine.fire_alloc_kb", mean(fireAlloc), "kB", len(fireAlloc))
		rep.add("explainer.advance_p50_us", median(adv), "us", len(adv))
		rep.add("explainer.advance_alloc_kb", mean(advAlloc), "kB", len(advAlloc))
		rep.add("wal.append_p50_us", median(walAppend), "us", len(walAppend))
		rep.add("wal.commit_wait_p50_ms", median(walWait), "ms", len(walWait))
	}
	if len(render) > 0 {
		rep.add("explainer.render_p50_ms", median(render), "ms", len(render))
		rep.add("explainer.report_kb", mean(reportKB), "kB", len(reportKB))
	}
	accounted := 0.0
	for l, v := range selfSum {
		share := 0.0
		if e2eSum > 0 {
			share = v / e2eSum
		}
		accounted += share
		rep.add(layerNames[l]+".self_share", share, "share", 0)
	}
	rep.add("layers.unaccounted_share", 1-accounted, "share", 0)

	// The runtime layer comes from the untraced phase.
	dTotal := plain.rt1.totalCPU - plain.rt0.totalCPU
	n := len(latencies(plain.ops))
	if dTotal > 0 {
		rep.add("runtime.gc_cpu_share", (plain.rt1.gcCPU-plain.rt0.gcCPU)/dTotal, "share", 0)
	}
	if n > 0 {
		rep.add("runtime.alloc_kb_per_op", (plain.rt1.allocBytes-plain.rt0.allocBytes)/float64(n)/1024, "kB", n)
	}
	rep.add("client.retries", float64(plain.retries+traced.retries), "count", 0)
	// The metrics of layers the workload never reaches report zero work;
	// any other metric left out stays missing, and print refuses it.
	for _, name := range perLayerNames {
		if _, ok := rep.lookup(name); !ok && listed(notReached, name) {
			rep.add(name, 0, unitOf(name), 0)
		}
	}
}

// listed reports whether a metric name is one of the given names or has
// one of the given "layer." prefixes.
func listed(names []string, name string) bool {
	for _, n := range names {
		if name == n || (strings.HasSuffix(n, ".") && strings.HasPrefix(name, n)) {
			return true
		}
	}
	return false
}

// lateness adds how late the load generator sent: its p99 over the
// measured ops.
func lateness(rep *report, ops []*op) {
	var late []float64
	for _, o := range ops {
		if !o.setup {
			late = append(late, ms(o.late))
		}
	}
	s := sortedCopy(late)
	rep.add("loadgen.late_p99_ms", quantile(s, 0.99), "ms", len(s))
}

// walCounts derives the WAL layer's counts from the deltas of the server's
// own wf_wal_* families over the untraced measured phase.
func walCounts(rep *report, before, after map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	if rec := d("wf_wal_records_appended_total"); rec > 0 {
		rep.add("wal.fsyncs_per_submit", d("wf_wal_fsync_total")/rec, "count", int(rec))
	}
	if n := d("wf_wal_group_commit_batch_size_count"); n > 0 {
		rep.add("wal.batch_mean", d("wf_wal_group_commit_batch_size_sum")/n, "count", int(n))
	}
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_kb"):
		return "kB"
	case strings.HasSuffix(name, "_share"):
		return "share"
	case strings.HasPrefix(name, "wal.bytes_"):
		return "B"
	default:
		return "count"
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
