package main

import "sort"

// metric is one named number the benchmark reports, with its unit.
// BENCHMARK.json lists the same names and units; the smoke test keeps
// the two in step.
type metric struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports: what a user of the
// agent → relay → root tree sees. Every workload reports every one, and
// none is zero.
var endToEnd = []metric{
	{"items_per_s", "items/s"},
	{"push_p50_ms", "ms"},
	{"push_p90_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"visible_p90_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"top_p50_ms", "ms"},
	{"top_p90_ms", "ms"},
	{"restart_s", "s"},
	{"wire_bytes_per_item", "B/item"},
	{"persist_bytes_per_frame", "B/frame"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// spanMetric maps a per-layer timing metric to the span it is read from:
// the median of the span's duration, or of its self time (duration minus
// the time its child spans cover).
type spanMetric struct {
	metric
	span string
	self bool
}

// spanMetrics are the per-layer timings, each the median over the spans
// recorded in the timed and restart phases of a traced run. Spans are
// recorded by the benchmark around public calls into salsa and
// internal/salsad, on the live path or as probes on the current state.
var spanMetrics = []spanMetric{
	{metric{"salsa.marshal_ms", "ms"}, spanMarshal, false},
	{metric{"salsa.unmarshal_ms", "ms"}, spanUnmarshal, false},
	{metric{"salsa.subtract_ms", "ms"}, spanSubtract, false},
	{metric{"salsa.merge_ms", "ms"}, spanMerge, false},
	{metric{"salsad.agent.cut_ms", "ms"}, spanAgentPush, true},
	{metric{"salsad.wire.encode_ms", "ms"}, spanEncode, false},
	{metric{"salsad.wire.decode_ms", "ms"}, spanDecode, false},
	{metric{"salsad.http.push_rtt_ms", "ms"}, spanPushRTT, false},
	{metric{"salsad.http.push_client_ms", "ms"}, spanPushRTT, true},
	{metric{"salsad.http.push_server_ms", "ms"}, spanPushServer, false},
	{metric{"salsad.http.query_client_ms", "ms"}, spanQueryRTT, true},
	{metric{"salsad.http.query_server_ms", "ms"}, spanQueryServer, false},
	{metric{"salsad.http.top_client_ms", "ms"}, spanTopRTT, true},
	{metric{"salsad.http.top_server_ms", "ms"}, spanTopServer, false},
	{metric{"salsad.aggregator.apply_ms", "ms"}, spanApply, false},
	{metric{"salsad.aggregator.query_ms", "ms"}, spanAggQuery, false},
	{metric{"salsad.aggregator.top_ms", "ms"}, spanAggTop, false},
	{metric{"salsad.relay.push_ms", "ms"}, spanRelayPush, false},
	{metric{"salsad.relay.cut_ms", "ms"}, spanRelayPush, true},
	{metric{"salsad.relay.upstream_rtt_ms", "ms"}, spanUpstreamRTT, false},
	{metric{"salsad.persist.marshal_state_ms", "ms"}, spanMarshalState, false},
	{metric{"salsad.persist.save_ms", "ms"}, spanSave, false},
	{metric{"salsad.persist.load_ms", "ms"}, spanLoad, false},
}

// otherLayer are the per-layer metrics that are not span medians:
// rates, sizes and the protocol counters of the failure accounting.
var otherLayer = []metric{
	{"salsa.ingest_ns_per_item", "ns/item"},
	{"salsa.reference_items_per_s", "items/s"},
	{"salsa.envelope_bytes_per_frame", "B/frame"},
	{"salsad.wire.bytes_per_frame", "B/frame"},
	{"salsad.persist.snapshot_bytes", "B"},
	{"salsad.agent.retries", "count"},
	{"salsad.agent.resyncs", "count"},
	{"salsad.aggregator.applied", "count"},
	{"salsad.aggregator.duplicates", "count"},
	{"salsad.aggregator.rejected", "count"},
	{"salsad.aggregator.persists", "count"},
	{"salsad.http.non2xx", "count"},
}

// overheadPrefix names the tracing-overhead metrics: for every
// end-to-end metric, its traced value minus its untraced value on the
// same seed.
const overheadPrefix = "trace.overhead."

// perLayer lists every metric a traced run reports.
func perLayer() []metric {
	var out []metric
	for _, m := range spanMetrics {
		out = append(out, m.metric)
	}
	out = append(out, otherLayer...)
	for _, m := range endToEnd {
		out = append(out, metric{overheadPrefix + m.name, m.unit})
	}
	return out
}

// value is one reported number in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). Zero for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
