//! `live_mixed`: the same channel mix as `bus_mixed`, hosted by the
//! live runtime (rtec-live: one thread per node plus the broker's
//! lock-step, loopback transport, virtual pacing), with no gateway.
//!
//! Publishers are collapsed onto two nodes — HRT on one, the four SRT
//! streams and the NRT bulk stream on the other — plus one subscriber
//! node. The NRT stream publishes one 4 KiB transfer about every
//! 500 ms, which its share of the bus carries in about 440 ms. The
//! helpers here (cluster set-up, delivery-log analysis) are shared with
//! the gateway workloads.

use crate::bench::{self, Rep};
use crate::measure::{self, check, fnv, Outcome, FNV_OFFSET};
use crate::publish::{
    counter_of, subj_index, PubLog, Publisher, Stream, Subscriber, HRT_SUBJECT, NRT_BASE, SRT_BASE,
};
use crate::spans::{Clock, Kind, Tracer};
use crate::Args;
use rtec_conformance::audit::{audit, AuditContext};
use rtec_core::binding::ETAG_FIRST_DYNAMIC;
use rtec_core::channel::{ChannelClass, ChannelSpec, HrtSpec, NrtSpec, SrtSpec};
use rtec_core::event::Subject;
use rtec_live::cluster::{Cluster, LiveReport};
use rtec_sim::{Duration, Time};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bus time run per repetition.
const HORIZON: Duration = Duration::from_ms(1_500);
/// No SRT publish in the last 20 ms and no NRT transfer in the last
/// 500 ms (one transfer takes about 440 ms), so both complete.
const SRT_UNTIL: Time = Time::from_ms(1_480);
const NRT_UNTIL: Time = Time::from_ms(1_000);

/// The `bus_mixed` channel mix as live streams: `[HRT]` and
/// `[SRT × 4, NRT]`.
fn streams() -> (Vec<Stream>, Vec<Stream>) {
    let hrt = vec![Stream {
        subject: HRT_SUBJECT,
        spec: ChannelSpec::Hrt(HrtSpec {
            period: Duration::from_ms(10),
            dlc: 8,
            omission_degree: 1,
            sporadic: false,
        }),
        every: Duration::from_ms(10),
        phase: Duration::ZERO,
        until: Time::MAX,
        bytes: 8,
    }];
    let mut rest: Vec<Stream> = (0..4)
        .map(|i| Stream {
            subject: Subject(SRT_BASE + i),
            spec: ChannelSpec::Srt(SrtSpec {
                default_deadline: Duration::from_ms(5),
                default_expiration: Some(Duration::from_ms(20)),
            }),
            every: Duration::from_us(800),
            phase: Duration::from_us(200 * (i + 1)),
            until: SRT_UNTIL,
            bytes: 8,
        })
        .collect();
    rest.push(Stream {
        subject: Subject(NRT_BASE),
        spec: ChannelSpec::Nrt(NrtSpec::bulk()),
        every: Duration::from_ms(500),
        phase: Duration::from_ms(20),
        until: NRT_UNTIL,
        bytes: 4096,
    });
    (hrt, rest)
}

/// The channel declarations of one cluster, kept to recover each
/// etag's subject: the live runtime binds subjects to etags statically,
/// in node order, each node's publications before its subscriptions.
#[derive(Default)]
pub struct Decls {
    nodes: BTreeMap<u8, (Vec<u64>, Vec<u64>)>,
}

impl Decls {
    pub fn publish(
        &mut self,
        cluster: &mut Cluster,
        node: u8,
        subject: Subject,
        spec: ChannelSpec,
    ) {
        cluster.publish(node, subject, spec);
        self.nodes.entry(node).or_default().0.push(subject.uid());
    }

    pub fn subscribe(
        &mut self,
        cluster: &mut Cluster,
        node: u8,
        subject: Subject,
        spec: ChannelSpec,
    ) {
        cluster.subscribe(node, subject, spec);
        self.nodes.entry(node).or_default().1.push(subject.uid());
    }

    /// Subject index of every bound etag.
    pub fn etags(&self) -> HashMap<u16, u8> {
        let mut seen: HashMap<u64, u16> = HashMap::new();
        let mut next = ETAG_FIRST_DYNAMIC;
        for (pubs, subs) in self.nodes.values() {
            for &uid in pubs.iter().chain(subs) {
                seen.entry(uid).or_insert_with(|| {
                    next += 1;
                    next - 1
                });
            }
        }
        seen.into_iter()
            .map(|(uid, e)| (e, subj_index(uid)))
            .collect()
    }
}

/// Add one publisher node per stream group; returns the shared log
/// the publishers merge into when the run ends.
pub fn add_publishers(
    cluster: &mut Cluster,
    decls: &mut Decls,
    groups: &[&[Stream]],
    seed: u64,
    clock: Clock,
    tracer: Option<&Tracer>,
) -> Arc<Mutex<PubLog>> {
    let log = Arc::new(Mutex::new(PubLog::default()));
    for (g, streams) in groups.iter().enumerate() {
        let node = cluster.add_node(Box::new(Publisher::new(
            streams,
            seed ^ (0x9E37_79B9 * (g as u64 + 1)),
            clock,
            Arc::clone(&log),
            tracer,
        )));
        for s in streams.iter() {
            decls.publish(cluster, node, s.subject, s.spec);
        }
    }
    log
}

/// What a delivery log says about one receiving node.
pub struct Deliveries {
    pub count: u64,
    /// Publish → delivery in bus ns, by class.
    pub latency_ns: [Vec<u64>; 3],
    /// HRT counters delivered, in delivery order.
    pub hrt_counters: Vec<u64>,
    /// NRT transfers delivered: (publish, delivery) bus ns and bytes.
    pub nrt: Vec<(u64, u64, usize)>,
}

/// Analyse the deliveries to `node` against the publish log.
pub fn deliveries(
    report: &LiveReport,
    etags: &HashMap<u16, u8>,
    node: u8,
    log: &PubLog,
) -> Result<Deliveries, String> {
    let mut d = Deliveries {
        count: 0,
        latency_ns: Default::default(),
        hrt_counters: Vec::new(),
        nrt: Vec::new(),
    };
    for r in report.log.iter().filter(|r| r.node == node) {
        d.count += 1;
        let subj = *etags
            .get(&r.etag)
            .ok_or_else(|| format!("delivery on unknown etag {}", r.etag))?;
        let k = counter_of(&r.bytes).ok_or("delivery without a counter")? as usize;
        let (bus_ns, _) = *log.at[subj as usize]
            .get(k)
            .ok_or_else(|| format!("delivery of event {k} on subject {subj}, never published"))?;
        let c = crate::publish::class_idx(r.class);
        d.latency_ns[c].push(r.delivered_ns.saturating_sub(bus_ns));
        match r.class {
            ChannelClass::Hrt => d.hrt_counters.push(k as u64),
            ChannelClass::Nrt => d.nrt.push((bus_ns, r.delivered_ns, r.bytes.len())),
            ChannelClass::Srt => {}
        }
    }
    Ok(d)
}

/// HRT events reached the receiver exactly once and in order: the
/// counters delivered are 0, 1, 2, … with at most the last published
/// one still in flight at the horizon.
pub fn check_hrt(counters: &[u64], published: u64, who: &str) -> Result<(), String> {
    check(
        counters.iter().enumerate().all(|(i, &c)| c == i as u64),
        || format!("{who}: HRT events arrived out of order or twice"),
    )?;
    check(counters.len() as u64 + 1 >= published, || {
        format!(
            "{who}: {} of {published} HRT events arrived",
            counters.len()
        )
    })
}

/// A digest of the whole delivery log (bus time only).
pub fn log_digest(report: &LiveReport) -> u64 {
    let mut h = FNV_OFFSET;
    for r in &report.log {
        h = fnv(h, &[r.node]);
        h = fnv(h, &r.etag.to_le_bytes());
        h = fnv(h, &r.bytes);
        h = fnv(h, &r.wire_ns.to_le_bytes());
        h = fnv(h, &r.delivered_ns.to_le_bytes());
    }
    h
}

/// Audit the live trace against rules T1–T9.
pub fn audit_trace(report: &LiveReport, who: &str) -> Result<(), String> {
    check(report.trace_dropped == 0, || {
        format!(
            "{who}: the trace ring dropped {} records",
            report.trace_dropped
        )
    })?;
    let mut trace = report.trace.clone();
    trace.sort_by(|x, y| (x.time, &x.source).cmp(&(y.time, &y.source)));
    let ctx = AuditContext::from_parts(
        (*report.calendar).clone(),
        report.calendar_start,
        report.channels.clone(),
        report.hrt_periods.clone(),
    );
    let rep = audit(&ctx, &trace);
    check(rep.passes(), || {
        format!("{who}: the T1–T9 audit failed:\n{rep}")
    })
}

/// Failed SRT/NRT work the publishers saw: failed publish calls, SRT
/// deadline misses and expiry drops.
pub fn publisher_failures(log: &PubLog) -> u64 {
    log.failed_publishes + log.srt_deadline_misses + log.srt_expired
}

fn rep(seed: u64, tracer: Option<&Tracer>) -> Result<Rep, String> {
    let t0 = Instant::now();
    let clock = tracer.map_or_else(Clock::start, |t| t.clock);
    let mut cluster = Cluster::new(cluster_config(tracer.is_some()));
    let (hrt, rest) = streams();
    let mut decls = Decls::default();
    let log = add_publishers(
        &mut cluster,
        &mut decls,
        &[&hrt, &rest],
        seed,
        clock,
        tracer,
    );
    let sub = cluster.add_node(Box::new(Subscriber));
    for s in hrt.iter().chain(&rest) {
        decls.subscribe(&mut cluster, sub, s.subject, s.spec);
    }
    let setup_s = measure::since(t0);

    let cpu0 = measure::cpu_s();
    let w0 = clock.now_ns();
    let t1 = Instant::now();
    let report = cluster
        .run_for(HORIZON)
        .map_err(|e| format!("live_mixed: run failed: {e}"))?;
    let run_s = measure::since(t1);
    let cpu_s = measure::cpu_s() - cpu0;
    if let Some(t) = tracer {
        t.record(Kind::Run, w0, clock.now_ns());
    }

    let log = log.lock().expect("publish log poisoned");
    let d = deliveries(&report, &decls.etags(), sub, &log)?;
    check_hrt(&d.hrt_counters, log.at[0].len() as u64, "live_mixed")?;
    let nrt_pub = log.at[5].len() as u64;
    check(nrt_pub > 0, || {
        "live_mixed: no NRT transfer was published".into()
    })?;
    // A missing HRT event already failed the run in `check_hrt`.
    let failed = publisher_failures(&log) + nrt_pub.saturating_sub(d.nrt.len() as u64);

    let mut layer = Vec::new();
    let mut span_lines = Vec::new();
    if let Some(t) = tracer {
        audit_trace(&report, "live_mixed")?;
        let spans = t.finish();
        span_lines = crate::spans::summary(&spans);
        layer = live_layers(&report, &spans, run_s, 0.0);
        layer.push(("live.deliveries".into(), d.count as f64));
    }
    Ok(Rep {
        setup_s,
        frames_host_s: run_s,
        deliveries_host_s: run_s,
        cpu_s,
        frames: frames_ok(&report),
        deliveries: d.count,
        bus_lat: d.latency_ns,
        nrt: d.nrt,
        srt_published: log.at[1..5].iter().map(|v| v.len() as u64).sum(),
        srt_misses: log.srt_deadline_misses,
        digest: log_digest(&report),
        attempted: log.published(),
        failed,
        layer,
        spans: span_lines,
        ..Rep::default()
    })
}

/// CAN frames the live broker completed.
pub fn frames_ok(report: &LiveReport) -> u64 {
    report.broker.frames_ok + report.broker.frames_with_omission
}

fn cluster_config(traced: bool) -> rtec_live::cluster::ClusterConfig {
    rtec_live::cluster::ClusterConfig {
        pace: rtec_live::Pace::Virtual,
        // One 4 KiB transfer is 820 fragments.
        nrt_queue_cap: 2_048,
        trace: traced,
        trace_capacity: None,
        ..Default::default()
    }
}

/// The rtec-live per-layer metrics of one traced run. `ingress_busy_s`
/// is the time the run spent inside the gateway's `on_delivery` (0
/// without a gateway).
pub fn live_layers(
    report: &LiveReport,
    spans: &[crate::spans::Span],
    run_s: f64,
    ingress_busy_s: f64,
) -> Vec<(String, f64)> {
    let frames = frames_ok(report);
    let bus_s = (run_s - ingress_busy_s).max(0.0);
    vec![
        ("live.frames_ok".into(), frames as f64),
        (
            "live.arbitrations".into(),
            report.broker.arbitrations as f64,
        ),
        (
            "live.backpressure".into(),
            report.stats.iter().map(|s| s.backpressure).sum::<u64>() as f64,
        ),
        ("live.bus_s".into(), bus_s),
        (
            "live.us_per_frame".into(),
            bus_s * 1e6 / frames.max(1) as f64,
        ),
        (
            "live.publish_busy_s".into(),
            crate::spans::busy_s(spans, Kind::Publish),
        ),
    ]
}

/// Run `live_mixed` for `args.seconds`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        bench::traced("live_mixed", args, &rep)
    } else {
        bench::end_to_end("live_mixed", args, &rep)
    }
}
