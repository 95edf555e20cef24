//! The measurement loop every workload shares.
//!
//! A run repeats its workload until `--seconds` of wall time have
//! passed. Repetition `i` uses sub-seed `i mod SUBSEEDS` of the run's
//! seed, so the first `SUBSEEDS` repetitions are distinct inputs and
//! every later one repeats an earlier input exactly:
//!
//! * bus-time metrics are computed over the first `SUBSEEDS`
//!   repetitions together (deterministic for a seed, `SUBSEEDS` times
//!   the samples of one repetition);
//! * a repeated input must reproduce its digest, and distinct inputs
//!   must not share one — the determinism gate, which therefore cannot
//!   pass vacuously;
//! * host-time metrics are medians over all repetitions.
//!
//! Host speed on a shared machine drifts by ±20 % over tens of seconds.
//! A fixed single-threaded probe kernel is timed right before and after
//! every repetition, and that repetition's host times are scaled by
//! `PROBE_REF_S / probe`: host-time metrics read as if measured on a
//! host where the probe takes `PROBE_REF_S`.

use crate::measure::{self, check, Outcome};
use crate::publish::CLASS_NAMES;
use crate::spans::{Clock, Tracer};
use crate::Args;

/// Distinct inputs per run.
pub const SUBSEEDS: usize = 8;
/// Probe time of the reference host.
pub const PROBE_REF_S: f64 = 0.6e-3;

/// What one repetition of any workload yields.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Host seconds the frame count is divided by.
    pub frames_host_s: f64,
    /// Host seconds the delivery count is divided by.
    pub deliveries_host_s: f64,
    pub cpu_s: f64,
    pub frames: u64,
    pub deliveries: u64,
    /// Publish → delivery at the bus receiver, bus ns, by class.
    pub bus_lat: [Vec<u64>; 3],
    /// NRT transfers: (publish, delivery) bus instants and bytes.
    pub nrt: Vec<(u64, u64, usize)>,
    pub srt_published: u64,
    pub srt_misses: u64,
    /// Wall latency to the client (µs) by class, when the workload has
    /// clients: per-repetition p50, p99 and sample count.
    pub wall_lat: Option<[(f64, f64, u64); 3]>,
    /// Paced in wall time (gw_paced): the frame and delivery rates and
    /// the latencies follow the pace, not the host's speed, so they are
    /// not scaled.
    pub paced: bool,
    /// Simulator engine events (bus_mixed).
    pub events: u64,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values and span summary (traced repetitions only).
    pub layer: Vec<(String, f64)>,
    pub spans: Vec<String>,
    /// Host speed factor (`PROBE_REF_S / probe`), set by the loop.
    pub speed: f64,
}

/// One repetition of a workload: its input seed and, in the traced run,
/// the span collector.
pub type RepFn<'a> = &'a dyn Fn(u64, Option<&Tracer>) -> Result<Rep, String>;

/// Sub-seed `i` of a run's seed.
pub fn subseed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn probed(rep: RepFn<'_>, seed: u64, tracer: Option<&Tracer>) -> Result<Rep, String> {
    let before = measure::probe_s();
    let mut r = rep(seed, tracer)?;
    let after = measure::probe_s();
    r.speed = PROBE_REF_S / ((before + after) / 2.0);
    Ok(r)
}

/// NRT payload per bus second of NRT backlog: bytes delivered over the
/// time at least one transfer was published and not yet delivered.
fn nrt_goodput_kbps(reps: &[Rep]) -> f64 {
    let mut bytes = 0usize;
    let mut busy_ns = 0u64;
    for r in reps {
        let mut iv: Vec<(u64, u64)> = r.nrt.iter().map(|&(p, d, _)| (p, d)).collect();
        iv.sort_unstable();
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    busy_ns += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            busy_ns += ce - cs;
        }
        bytes += r.nrt.iter().map(|t| t.2).sum::<usize>();
    }
    bytes as f64 / 1e3 / (busy_ns.max(1) as f64 / 1e9)
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(name: &str, args: &Args, rep: RepFn<'_>) -> Result<Outcome, String> {
    let reps = measure::repeat(args.seconds, SUBSEEDS + 1, |i| {
        let mut r = probed(rep, subseed(args.seed, i % SUBSEEDS), None)?;
        if i >= SUBSEEDS {
            // Only the first inputs' samples are used; dropping the rest
            // keeps the benchmark's own memory out of `peak_rss_mb`.
            r.bus_lat = Default::default();
            r.nrt = Vec::new();
        }
        Ok(r)
    })?;
    for (i, r) in reps.iter().enumerate().skip(SUBSEEDS) {
        check(r.digest == reps[i - SUBSEEDS].digest, || {
            format!("{name}: two runs of the same input gave different results")
        })?;
    }
    check(reps[0].digest != reps[1].digest, || {
        format!("{name}: two different inputs gave identical results")
    })?;
    let first = &reps[..SUBSEEDS];
    let med = |f: &dyn Fn(&Rep) -> f64| measure::median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut bus_lat: [Vec<u64>; 3] = Default::default();
    for r in first {
        for (c, v) in r.bus_lat.iter().enumerate() {
            bus_lat[c].extend_from_slice(v);
        }
    }
    for v in &mut bus_lat {
        v.sort_unstable();
    }
    let us = |v: &[u64], q| measure::pct(v, q) as f64 / 1e3;

    let mut out = Outcome {
        attempted: first.iter().map(|r| r.attempted).sum(),
        failed: first.iter().map(|r| r.failed).sum(),
        ..Outcome::default()
    };
    // Host times are scaled to the reference host: t × speed. Rates of
    // a paced workload are not.
    let rate_speed = |r: &Rep| if r.paced { 1.0 } else { r.speed };
    out.put("setup_s", med(&|r| r.setup_s * r.speed), "s");
    out.put(
        "frames_per_s",
        med(&|r| r.frames as f64 / (r.frames_host_s * rate_speed(r))),
        "frames/s",
    );
    out.put(
        "deliveries_per_s",
        med(&|r| r.deliveries as f64 / (r.deliveries_host_s * rate_speed(r))),
        "msgs/s",
    );
    out.put(
        "cpu_us_per_delivery",
        med(&|r| r.cpu_s * r.speed * 1e6 / r.deliveries.max(1) as f64),
        "us",
    );
    out.put("srt_p99_bus_us", us(&bus_lat[1], 0.99), "us");
    out.put("nrt_goodput_kBps", nrt_goodput_kbps(first), "kB/s");
    for (i, c) in CLASS_NAMES.iter().enumerate() {
        let v = match reps[0].wall_lat {
            Some(_) => med(&|r| r.wall_lat.map_or(0.0, |w| w[i].0) * rate_speed(r)),
            None => us(&bus_lat[i], 0.5),
        };
        out.put(&format!("{c}_p50_us"), v, "us");
    }
    out.put("peak_rss_mb", measure::peak_rss_mb(), "MB");

    let srt_pub: u64 = first.iter().map(|r| r.srt_published).sum();
    let srt_miss: u64 = first.iter().map(|r| r.srt_misses).sum();
    out.notes.push(format!(
        "{name}: {} repetitions, host speed factor {:.3} (median), {} frames and {} deliveries per repetition",
        reps.len(),
        med(&|r| r.speed),
        reps[0].frames,
        reps[0].deliveries,
    ));
    out.notes.push(format!(
        "{name}: unscaled medians: setup_s {}, frames_per_s {}, deliveries_per_s {}, cpu_us_per_delivery {}",
        med(&|r| r.setup_s),
        med(&|r| r.frames as f64 / r.frames_host_s),
        med(&|r| r.deliveries as f64 / r.deliveries_host_s),
        med(&|r| r.cpu_s * 1e6 / r.deliveries.max(1) as f64),
    ));
    out.notes.push(format!(
        "{name}: srt_miss_ratio {} ({srt_miss} of {srt_pub}), bus-time p99 by class: hrt {} us, srt {} us, nrt {} us",
        srt_miss as f64 / srt_pub.max(1) as f64,
        us(&bus_lat[0], 0.99),
        us(&bus_lat[1], 0.99),
        us(&bus_lat[2], 0.99),
    ));
    if reps[0].wall_lat.is_some() {
        for (i, c) in CLASS_NAMES.iter().enumerate() {
            out.notes.push(format!(
                "{name}: fast-client {c} wall latency p50 {:.1} us, p99 {:.1} us, {} samples per repetition (medians; the p99 is not gated)",
                med(&|r| r.wall_lat.map_or(0.0, |w| w[i].0)),
                med(&|r| r.wall_lat.map_or(0.0, |w| w[i].1)),
                reps[0].wall_lat.map_or(0, |w| w[i].2),
            ));
        }
    }
    Ok(out)
}

/// The traced run: alternate untraced and traced repetitions of the
/// first input; per-layer metrics are medians over the traced ones,
/// and the tracing overhead compares their host times.
pub fn traced(name: &str, args: &Args, rep: RepFn<'_>) -> Result<Outcome, String> {
    let seed = subseed(args.seed, 0);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    measure::repeat(args.seconds, 1, |_| {
        plain.push(probed(rep, seed, None)?);
        traced.push(probed(rep, seed, Some(&Tracer::new(Clock::start())))?);
        Ok(())
    })?;
    let host = |reps: &[Rep]| {
        measure::median(
            &reps
                .iter()
                .map(|r| r.deliveries_host_s * r.speed)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = 100.0 * (host(&traced) / host(&plain) - 1.0);
    let mut layer: Vec<(String, f64)> = Vec::new();
    for (name, _) in &traced[0].layer {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.layer.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        layer.push((name.clone(), measure::median(&v)));
    }
    let srt_pub = traced[0].srt_published;
    layer.push((
        "srt_miss_ratio".into(),
        traced[0].srt_misses as f64 / srt_pub.max(1) as f64,
    ));
    layer.push(("trace.overhead_pct".into(), overhead));
    if traced[0].events > 0 {
        layer.push(("sim.trace_overhead_pct".into(), overhead));
        layer.push((
            "sim.ns_per_event".into(),
            measure::median(
                &plain
                    .iter()
                    .map(|r| r.frames_host_s * r.speed * 1e9 / r.events as f64)
                    .collect::<Vec<_>>(),
            ),
        ));
    }
    let mut out = Outcome {
        attempted: traced[0].attempted,
        failed: traced[0].failed,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{name}: {} traced and {} untraced repetitions; tracing overhead {overhead:.1} %",
        traced.len(),
        plain.len()
    ));
    out.notes
        .extend(traced[0].spans.iter().map(|l| format!("{name}: {l}")));
    crate::layers::emit(&mut out, &layer);
    Ok(out)
}
