//! The per-layer metrics a traced run prints, by name and unit.
//!
//! Every traced run prints the whole list, in this order; a metric of a
//! layer the workload does not drive reads 0. `BENCHMARK.json` lists
//! the same names.

use crate::measure::Outcome;

pub const PER_LAYER: &[(&str, &str)] = &[
    // rtec-sim / rtec-can / rtec-core (bus_mixed).
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.trace_overhead_pct", "%"),
    ("sim.rss_mb_per_bus_s", "MB/s"),
    ("can.frames_ok", "count"),
    ("can.frames_corrupted", "count"),
    ("can.arbitrations", "count"),
    ("can.util", "ratio"),
    ("can.busy_frac.hrt", "ratio"),
    ("can.busy_frac.srt", "ratio"),
    ("can.busy_frac.nrt", "ratio"),
    ("core.hrt.redundant_tx", "count"),
    ("core.hrt.missing_slots", "count"),
    ("core.hrt.lst_blocking_max_bus_us", "us"),
    ("core.srt.deadline_misses", "count"),
    ("core.srt.expired_drops", "count"),
    ("core.nrt.transfers_done", "count"),
    ("core.hrt.queue_p99_bus_us", "us"),
    ("core.hrt.wire_p99_bus_us", "us"),
    ("core.hrt.hold_p99_bus_us", "us"),
    ("core.srt.queue_p99_bus_us", "us"),
    ("core.srt.wire_p99_bus_us", "us"),
    ("core.srt.hold_p99_bus_us", "us"),
    ("core.nrt.queue_p99_bus_us", "us"),
    ("core.nrt.wire_p99_bus_us", "us"),
    ("core.nrt.hold_p99_bus_us", "us"),
    // Bus-time SRT miss ratio (every workload with a bus).
    ("srt_miss_ratio", "ratio"),
    // rtec-live (live_mixed, gw_fanout, gw_paced).
    ("live.frames_ok", "count"),
    ("live.arbitrations", "count"),
    ("live.deliveries", "count"),
    ("live.backpressure", "count"),
    ("live.bus_s", "s"),
    ("live.us_per_frame", "us"),
    ("live.publish_busy_s", "s"),
    ("live.generator_lag_p50_us", "us"),
    ("live.generator_lag_p99_us", "us"),
    // rtec-gateway (gw_fanout, gw_paced).
    ("gw.ingress.calls", "count"),
    ("gw.ingress.busy_s", "s"),
    ("gw.shard.fanout_skew", "ratio"),
    ("gw.finish_s", "s"),
    ("gw.lane.delivered_ratio", "ratio"),
    ("gw.lane.shed_nrt", "count"),
    ("gw.lane.shed_srt_stale", "count"),
    ("gw.lane.shed_srt_cap", "count"),
    ("gw.lane.coalesced", "count"),
    ("gw.lane.batches", "count"),
    ("gw.lane.fragments", "count"),
    ("gw.lane.peak", "count"),
    ("gw.sink.offers", "count"),
    ("gw.sink.accept_ratio", "ratio"),
    ("gw.sink.busy_s", "s"),
    ("gw.sink.bytes_per_msg", "bytes"),
    ("gw.bus_p50_us.hrt", "us"),
    ("gw.bus_p50_us.srt", "us"),
    ("gw.bus_p50_us.nrt", "us"),
    ("gw.offbus_p50_us.hrt.fast", "us"),
    ("gw.offbus_p50_us.srt.fast", "us"),
    ("gw.offbus_p50_us.nrt.fast", "us"),
    ("gw.offbus_p50_us.hrt.slow", "us"),
    ("gw.offbus_p50_us.srt.slow", "us"),
    ("gw.offbus_p50_us.nrt.slow", "us"),
    ("gw.offbus_p99_us.hrt.fast", "us"),
    ("gw.offbus_p99_us.srt.fast", "us"),
    ("gw.offbus_p99_us.nrt.fast", "us"),
    ("gw.offbus_p99_us.hrt.slow", "us"),
    ("gw.offbus_p99_us.srt.slow", "us"),
    ("gw.offbus_p99_us.nrt.slow", "us"),
    ("gw.session.opened", "count"),
    ("gw.session.replay_bytes", "bytes"),
    // End-to-end tails kept out of the gated metrics (gw_paced), with
    // their sample counts.
    ("e2e.hrt_p99_us", "us"),
    ("e2e.srt_p99_us", "us"),
    ("e2e.nrt_p99_us", "us"),
    ("e2e.hrt_samples", "count"),
    ("e2e.srt_samples", "count"),
    ("e2e.nrt_samples", "count"),
    // Tracing overhead of the traced run, every workload.
    ("trace.overhead_pct", "%"),
];

/// Put every per-layer metric into `out`, taking values from `values`
/// and 0 for the ones the workload does not produce. Panics on a value
/// whose name is not in [`PER_LAYER`], which would be a typo here.
pub fn emit(out: &mut Outcome, values: &[(String, f64)]) {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in the list"
        );
    }
    for &(name, unit) in PER_LAYER {
        let v = values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        out.put(name, v, unit);
    }
}
