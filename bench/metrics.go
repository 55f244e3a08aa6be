package main

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json's
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"op_p99_s", "s"},
	{"alloc_mb_per_op", "MiB"},
}

var serviceClasses = []string{"hit", "miss-broadcast", "miss-spokesman", "miss-expansion", "upload", "upload-dup"}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json's
// order. Every workload reports all of them; a layer the workload does not
// reach reads 0.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name, unit}) }
	for _, obj := range exactObjectives {
		p := "expansion." + obj + "."
		add(p+"busy_s", "s")
		add(p+"sets", "count")
		add(p+"sets_per_s", "1/s")
		add(p+"visited", "count")
		add(p+"prune_rate", "fraction")
	}
	add("expansion.exact.useful_ratio", "fraction")
	add("expansion.exact.wasted_s", "s")
	add("expansion.randomized.busy_s", "s")
	add("expansion.randomized.trials", "count")
	for _, m := range radioModels {
		add("radio."+m.key+".engine_ns_per_round", "ns")
		add("radio."+m.key+".rounds", "count")
	}
	for _, spec := range millionModels {
		add("radio.sparse."+modelKey(spec)+".engine_ns_per_round", "ns")
		add("radio.sparse."+modelKey(spec)+".rounds", "count")
	}
	add("radio.decay.decide_ns_per_round", "ns")
	add("spokesman.decide_ns_per_round", "ns")
	add("radio.mc.busy_s", "s")
	add("radio.useful_ratio", "fraction")
	add("radio.collisions", "count")
	add("graph.ingest_s", "s")
	add("graph.ingest_edges_per_s", "1/s")
	add("graph.ingest_alloc_bytes_per_edge", "B")
	for _, c := range serviceClasses {
		add("service."+c+".handler_p50_s", "s")
		add("service."+c+".handler_p99_s", "s")
	}
	add("service.cache_hit_ratio", "fraction")
	add("service.transport_p50_s", "s")
	add("harness.gen_late_p50_s", "s")
	add("harness.gen_late_p99_s", "s")
	add("harness.trace_overhead", "fraction")
	return out
}
