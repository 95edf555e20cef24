//! `gw_fanout` and `gw_paced`: the live cluster feeding one gateway
//! (rtec-gateway) that fans every event out to simulated clients.
//!
//! Both use the gateway bench's subjects — 1 HRT, 4 SRT (8 bytes every
//! 4 ms) and 2 NRT (240 bytes every 60 ms) — on two publisher nodes, a
//! gateway node subscribed to all of them, and `nproc` shard workers.
//! (The gateway bench publishes SRT every 2 ms and NRT every 6 ms, which
//! asks for twice the bus's bandwidth and more frames than the live
//! runtime carries in real time on a 2-core host.) Each client
//! subscribes to a seeded pair of subjects; every fifth client is slow
//! and accepts 25 % of offers; the policy is `ShedNrtFirst` and each
//! lane holds at most `LANE_CAP` entries.
//!
//! * `gw_fanout` is a closed batch at `Pace::Virtual` with 10 000
//!   sessionless clients: the run ends when `Gateway::finish` returns.
//!   Events are timed from gateway ingress to client accept.
//! * `gw_paced` is an open loop at `Pace::Wall { speedup: 1 }` with 500
//!   session clients: publishers fire on the bus schedule whether or not
//!   the gateway keeps up, and each event is timed from its due instant.
//!
//! The benchmark wraps the gateway behavior's `on_delivery` and every
//! client's `ClientSink::offer`; the wrappers recover each event's key
//! from the wire bytes with `wire::decode_to_client`.

use crate::bench::{self, Rep};
use crate::live::{self, Decls};
use crate::measure::{self, check, fnv, Outcome, FNV_OFFSET};
use crate::publish::{
    class_idx, class_of, counter_of, subj_index, PubLog, Stream, CLASS_NAMES, HRT_SUBJECT,
    NRT_BASE, SRT_BASE,
};
use crate::spans::{self, Clock, Kind, Local, Tracer, ACCEPTED, FAST};
use crate::Args;
use rtec_core::channel::{ChannelClass, ChannelException, ChannelSpec, HrtSpec, NrtSpec, SrtSpec};
use rtec_core::event::{Delivery, Subject};
use rtec_gateway::wire::{self, ToClient};
use rtec_gateway::{
    ClientSink, ClientSinkSpec, Gateway, GatewayConfig, GatewayReport, SimClientSink, SinkStatus,
    SlowConsumerPolicy,
};
use rtec_live::cluster::{Cluster, LiveReport};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::Pace;
use rtec_sim::{Duration, Rng, Time};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bound of each (client, shard) lane.
const LANE_CAP: usize = 32;
/// Every `SLOW_EVERY`-th client accepts `SLOW_PERMILLE`‰ of offers.
const SLOW_EVERY: usize = 5;
const SLOW_PERMILLE: u16 = 250;
/// SRT/NRT publishing stops this long before the horizon, so what was
/// published completes.
const DRAIN: Duration = Duration::from_ms(20);

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Fanout,
    Paced,
}

struct Params {
    name: &'static str,
    clients: usize,
    pace: Pace,
    horizon: Duration,
    sessions: bool,
    /// Clients whose accepted events are all timed (the rest only
    /// count): every `sample_every`-th.
    sample_every: usize,
    /// Depth of each shard's ingress channel.
    ingress_depth: usize,
}

fn params(mode: Mode) -> Params {
    match mode {
        Mode::Fanout => Params {
            name: "gw_fanout",
            clients: 10_000,
            pace: Pace::Virtual,
            horizon: Duration::from_ms(300),
            sessions: false,
            sample_every: 50,
            // A shallow channel holds the bus back while the shards work
            // (backpressure), instead of queueing the whole batch: an
            // event's latency then measures the gateway's service, not
            // its place in the batch.
            ingress_depth: 8,
        },
        Mode::Paced => Params {
            name: "gw_paced",
            clients: 500,
            pace: Pace::Wall { speedup: 1 },
            horizon: Duration::from_ms(1_000),
            sessions: true,
            sample_every: 1,
            ingress_depth: GatewayConfig::default().ingress_depth,
        },
    }
}

/// The gateway bench's streams: `[HRT]` and `[SRT × 4, NRT × 2]`.
fn streams(horizon: Duration) -> (Vec<Stream>, Vec<Stream>) {
    let until = Time::ZERO + horizon - DRAIN;
    let hrt = vec![Stream {
        subject: HRT_SUBJECT,
        spec: ChannelSpec::Hrt(HrtSpec::periodic_10ms()),
        every: Duration::from_ms(10),
        phase: Duration::ZERO,
        until: Time::MAX,
        bytes: 8,
    }];
    let mut rest: Vec<Stream> = (0..4)
        .map(|i| Stream {
            subject: Subject(SRT_BASE + i),
            spec: ChannelSpec::Srt(SrtSpec::default()),
            every: Duration::from_ms(4),
            phase: Duration::from_us(300 * (i + 1)),
            until,
            bytes: 8,
        })
        .collect();
    for j in 0..2 {
        rest.push(Stream {
            subject: Subject(NRT_BASE + j),
            spec: ChannelSpec::Nrt(NrtSpec::bulk()),
            every: Duration::from_ms(60),
            phase: Duration::from_ms(1 + 3 * j),
            until,
            bytes: 240,
        });
    }
    (hrt, rest)
}

/// One accepted event at a client: (subject index, counter, wall ns).
type Sample = (u8, u32, u64);

/// What the client wrappers report when they drop.
#[derive(Default)]
struct TapTotals {
    offers: u64,
    accepted: u64,
    bytes: u64,
    /// Per client checked for HRT order: HRT events received.
    hrt_received: Vec<u64>,
    /// A checked client saw an HRT event out of order or twice.
    hrt_out_of_order: u64,
    /// HRT `Shed` notices seen by any client (HRT is never shed).
    hrt_shed_notices: u64,
    /// Timed accepts of fast and slow clients.
    samples: [Vec<Sample>; 2],
}

/// A simulated client, wrapped to count, check and time its accepts.
struct ClientTap {
    /// Acceptance schedules: one for a per-shard lane's own sink; for
    /// a session's sink, one per shard plus one for control frames.
    /// Every shard offers to a session's one sink in wall-clock order,
    /// so a single schedule would hand each shard a different run of
    /// accepts on every run; routing each data frame to its subject's
    /// shard's schedule keeps every lane's sheds fixed by the seed.
    /// Control frames (shed notices) do not change a lane.
    inner: Vec<SimClientSink>,
    fast: bool,
    /// Subscribed to HRT and fast: must see every HRT event in order.
    check_hrt: bool,
    timed: bool,
    next_hrt: u64,
    hrt_bad: bool,
    hrt_shed: u64,
    offers: u64,
    accepted: u64,
    bytes: u64,
    samples: Vec<Sample>,
    clock: Clock,
    spans: Option<Local>,
    out: Arc<Mutex<TapTotals>>,
}

impl ClientSink for ClientTap {
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        let t0 = if self.spans.is_some() {
            self.clock.now_ns()
        } else {
            0
        };
        let sched = self.schedule(bytes);
        let status = self.inner[sched].offer(bytes);
        self.offers += 1;
        let mut key = None;
        if status == SinkStatus::Accepted {
            self.accepted += 1;
            self.bytes += bytes.len() as u64;
            if self.check_hrt || self.timed || self.spans.is_some() {
                key = self.inspect(bytes);
            }
        }
        if let Some(sp) = self.spans.as_mut() {
            let flags =
                u8::from(status == SinkStatus::Accepted) * ACCEPTED + u8::from(self.fast) * FAST;
            sp.push(Kind::Offer, t0, sp.now_ns(), key, flags);
        }
        status
    }

    fn digest(&self) -> Option<rtec_gateway::SinkDigest> {
        match self.inner.as_slice() {
            [one] => one.digest(),
            _ => None,
        }
    }
}

impl ClientTap {
    /// Index of the acceptance schedule an offered frame draws from.
    fn schedule(&self, bytes: &[u8]) -> usize {
        let shards = self.inner.len() - 1;
        if shards == 0 {
            return 0;
        }
        let uid = match wire::data_frame_meta(bytes) {
            None => return shards,
            Some((_, uid, _)) if uid != 0 => uid,
            Some(_) => match wire::decode_to_client(bytes) {
                Ok(ToClient::Batch { entries }) => entries.first().map_or(0, |e| e.uid),
                Ok(ToClient::Frag(f)) => f.uid,
                _ => 0,
            },
        };
        Subject(uid).shard_of(shards)
    }

    /// Decode an accepted message: check HRT order, time the events,
    /// and return the first event's key.
    fn inspect(&mut self, bytes: &[u8]) -> Option<(u8, u32)> {
        let now = self.clock.now_ns();
        let mut first = None;
        let mut seen = |this: &mut Self, uid: u64, payload: &[u8]| {
            let subj = subj_index(uid);
            let Some(k) = counter_of(payload) else {
                return;
            };
            if subj == 0 && this.check_hrt {
                this.hrt_bad |= k != this.next_hrt;
                this.next_hrt = k + 1;
            }
            if this.timed {
                this.samples.push((subj, k as u32, now));
            }
            first.get_or_insert((subj, k as u32));
        };
        match wire::decode_to_client(bytes).ok()? {
            ToClient::Event(ev) => seen(self, ev.uid, &ev.payload),
            ToClient::Batch { entries } => {
                for e in &entries {
                    seen(self, e.uid, &e.payload);
                }
            }
            ToClient::Shed {
                class: ChannelClass::Hrt,
                ..
            } => self.hrt_shed += 1,
            _ => {}
        }
        first
    }
}

impl Drop for ClientTap {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            out.offers += self.offers;
            out.accepted += self.accepted;
            out.bytes += self.bytes;
            out.hrt_shed_notices += self.hrt_shed;
            if self.check_hrt {
                out.hrt_received.push(self.next_hrt);
                out.hrt_out_of_order += u64::from(self.hrt_bad);
            }
            out.samples[usize::from(!self.fast)].append(&mut self.samples);
        }
    }
}

/// What the ingress wrapper reports when it drops.
#[derive(Default)]
struct IngressTotals {
    /// Ingress wall instant of every event.
    stamps: Vec<Sample>,
}

/// The gateway node's behavior, wrapped to stamp and time ingress.
struct IngressTap {
    inner: Box<dyn Behavior>,
    clock: Clock,
    totals: IngressTotals,
    spans: Option<Local>,
    out: Arc<Mutex<IngressTotals>>,
}

impl Behavior for IngressTap {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, payload: u64) {
        self.inner.on_timer(ctx, payload);
    }

    fn on_delivery(&mut self, ctx: &mut NodeCtx<'_>, delivery: &Delivery) {
        let t0 = self.clock.now_ns();
        self.inner.on_delivery(ctx, delivery);
        let subj = subj_index(delivery.event.subject.uid());
        let k = counter_of(&delivery.event.content).unwrap_or(u64::MAX) as u32;
        self.totals.stamps.push((subj, k, t0));
        if let Some(sp) = self.spans.as_mut() {
            sp.push(Kind::Ingress, t0, sp.now_ns(), Some((subj, k)), 0);
        }
    }

    fn on_exception(&mut self, ctx: &mut NodeCtx<'_>, exception: &ChannelException) {
        self.inner.on_exception(ctx, exception);
    }
}

impl Drop for IngressTap {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            *out = std::mem::take(&mut self.totals);
        }
    }
}

/// Seed of one (client, shard) lane's acceptance schedule.
fn lane_seed(seed: u64, client: u32, shard: usize) -> u64 {
    let mut z = seed
        ^ u64::from(client).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (shard as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rep(p: &Params, seed: u64, tracer: Option<&Tracer>) -> Result<Rep, String> {
    let who = p.name;
    let t0 = Instant::now();
    let clock = tracer.map_or_else(Clock::start, |t| t.clock);
    let mut cluster = Cluster::new(rtec_live::cluster::ClusterConfig {
        pace: p.pace,
        nrt_queue_cap: 256,
        trace: false,
        ..Default::default()
    });
    let (hrt, rest) = streams(p.horizon);
    let mut decls = Decls::default();
    let log = live::add_publishers(
        &mut cluster,
        &mut decls,
        &[&hrt, &rest],
        seed,
        clock,
        tracer,
    );
    let all: Vec<Stream> = hrt.iter().chain(&rest).copied().collect();

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gateway = Gateway::new(GatewayConfig {
        workers,
        client_queue_cap: LANE_CAP,
        ingress_depth: p.ingress_depth,
        ..GatewayConfig::default()
    });
    for s in &all {
        gateway.bind(s.subject, &s.spec);
    }
    let taps = Arc::new(Mutex::new(TapTotals::default()));
    let hrt_shard = HRT_SUBJECT.shard_of(workers);
    let sessions = p.sessions;
    let mut rng = Rng::seed_from_u64(seed ^ 0x6A7E_6A7E);
    for c in 0..p.clients {
        let a = rng.gen_range_u64(all.len() as u64) as usize;
        let mut b = rng.gen_range_u64(all.len() as u64) as usize;
        while b == a {
            b = rng.gen_range_u64(all.len() as u64) as usize;
        }
        let subjects = [all[a].subject, all[b].subject];
        let fast = c % SLOW_EVERY != 0;
        let permille = if fast { 1_000 } else { SLOW_PERMILLE };
        let has_hrt = a == 0 || b == 0;
        let timed = c % p.sample_every == 0 || (p.sample_every > 1 && c % p.sample_every == 1);
        let mint = {
            let taps = Arc::clone(&taps);
            let tracer = tracer.cloned();
            move |client: u32, shard: usize| -> Box<dyn ClientSink> {
                // A session's one sink stands for all shards (`shard`
                // is 0): one schedule per shard, and one for control.
                let schedules = if sessions { workers + 1 } else { 1 };
                Box::new(ClientTap {
                    inner: (0..schedules)
                        .map(|i| SimClientSink::new(lane_seed(seed, client, shard + i), permille))
                        .collect(),
                    fast,
                    // A per-shard lane carries HRT only on the HRT
                    // subject's shard; a session's one sink carries all.
                    check_hrt: fast && has_hrt && (sessions || shard == hrt_shard),
                    timed,
                    next_hrt: 0,
                    hrt_bad: false,
                    hrt_shed: 0,
                    offers: 0,
                    accepted: 0,
                    bytes: 0,
                    samples: Vec::new(),
                    clock,
                    spans: tracer.as_ref().map(Tracer::local),
                    out: Arc::clone(&taps),
                })
            }
        };
        let policy = Some(SlowConsumerPolicy::ShedNrtFirst);
        if p.sessions {
            let id = gateway.reserve_client();
            gateway.open_session(id, &subjects, policy);
            gateway.attach_session(id, mint(id, 0));
        } else {
            gateway.add_client(&subjects, &ClientSinkSpec::PerShard(Box::new(mint)), policy);
        }
    }
    let ingress_out = Arc::new(Mutex::new(IngressTotals::default()));
    let gw_node = cluster.add_node(Box::new(IngressTap {
        inner: gateway.behavior(),
        clock,
        totals: IngressTotals::default(),
        spans: tracer.map(Tracer::local),
        out: Arc::clone(&ingress_out),
    }));
    for s in &all {
        decls.subscribe(&mut cluster, gw_node, s.subject, s.spec);
    }
    let setup_s = measure::since(t0);

    let cpu0 = measure::cpu_s();
    let w0 = clock.now_ns();
    let t1 = Instant::now();
    let report = cluster
        .run_for(p.horizon)
        .map_err(|e| format!("{who}: run failed: {e}"))?;
    let run_s = measure::since(t1);
    let w1 = clock.now_ns();
    let gw = gateway.finish();
    let wall_s = measure::since(t1);
    let cpu_s = measure::cpu_s() - cpu0;
    if let Some(t) = tracer {
        t.record(Kind::Run, w0, w1);
        t.record(Kind::Finish, w1, clock.now_ns());
    }

    let log = log.lock().expect("publish log poisoned");
    let taps = taps.lock().expect("client totals poisoned");
    let ingress_totals = ingress_out.lock().expect("ingress totals poisoned");
    let d = live::deliveries(&report, &decls.etags(), gw_node, &log)?;

    // Correctness gate.
    live::check_hrt(&d.hrt_counters, log.at[0].len() as u64, who)?;
    let hrt_in = d.hrt_counters.len() as u64;
    check(taps.hrt_out_of_order == 0, || {
        format!(
            "{who}: {} fast client(s) saw HRT out of order",
            taps.hrt_out_of_order
        )
    })?;
    check(taps.hrt_received.iter().all(|&n| n == hrt_in), || {
        format!("{who}: a fast client missed HRT events ({hrt_in} entered the gateway)")
    })?;
    check(!taps.hrt_received.is_empty() && hrt_in > 0, || {
        format!("{who}: no fast client was checked for HRT")
    })?;
    check(taps.hrt_shed_notices == 0, || {
        format!("{who}: HRT was shed")
    })?;
    check(gw.stats.peak_lane_occupancy <= LANE_CAP, || {
        format!(
            "{who}: lane occupancy {} exceeded the cap {LANE_CAP}",
            gw.stats.peak_lane_occupancy
        )
    })?;
    check(gw.stats.delivered_msgs > 0, || {
        format!("{who}: nothing was delivered")
    })?;

    // Failure accounting: publisher-side failures, every (event, lane)
    // entry shed or left undelivered, every disconnect.
    let nrt_pub: u64 = log.at[5..].iter().map(|v| v.len() as u64).sum();
    let failed = live::publisher_failures(&log)
        + nrt_pub.saturating_sub(d.nrt.len() as u64)
        + gw.stats.shed_total()
        + gw.stats.undelivered
        + gw.stats.disconnects;
    let attempted = log.published() + gw.stats.fanout;

    // Wall latency of the timed fast clients, by class: from each
    // event's due instant when paced; from gateway ingress at virtual
    // pace, which gives bus instants no wall-clock schedule.
    let paced = p.pace != Pace::Virtual;
    let ingress = index_stamps(&ingress_totals.stamps);
    let offset = wall_minus_bus(&log);
    let lat = by_class(&taps.samples[0], |subj, k| {
        if paced {
            let &(bus, _) = log.at.get(subj as usize)?.get(k as usize)?;
            Some(due(bus, offset))
        } else {
            ingress.get(&(subj, k)).copied()
        }
    });
    let pick = |v: &[u64], q| measure::pct(v, q) as f64 / 1e3;

    let mut layer = Vec::new();
    let mut span_lines = Vec::new();
    if let Some(t) = tracer {
        let spans = t.finish();
        span_lines = spans::summary(&spans);
        layer = gw_layers(
            &report,
            &log,
            &gw,
            &taps,
            &spans,
            &ingress,
            offset,
            run_s,
            wall_s - run_s,
            paced,
        );
        layer.push(("live.deliveries".into(), d.count as f64));
        if paced {
            for (i, c) in CLASS_NAMES.iter().enumerate() {
                layer.push((format!("e2e.{c}_p99_us"), pick(&lat[i], 0.99)));
                layer.push((format!("e2e.{c}_samples"), lat[i].len() as f64));
            }
        }
    }
    let wall_lat =
        Some([0, 1, 2].map(|i| (pick(&lat[i], 0.5), pick(&lat[i], 0.99), lat[i].len() as u64)));
    let digest = match p.pace {
        // Wall pacing keeps the bus deterministic, but shard threads
        // share each session's sink in wall-clock order.
        Pace::Wall { .. } => live::log_digest(&report),
        Pace::Virtual => digest(&report, &gw),
    };
    Ok(Rep {
        setup_s,
        frames_host_s: wall_s,
        deliveries_host_s: wall_s,
        cpu_s,
        frames: live::frames_ok(&report),
        deliveries: gw.stats.delivered_msgs,
        bus_lat: d.latency_ns,
        nrt: d.nrt,
        srt_published: log.at[1..5].iter().map(|v| v.len() as u64).sum(),
        srt_misses: log.srt_deadline_misses,
        wall_lat,
        paced,
        digest,
        attempted,
        failed,
        layer,
        spans: span_lines,
        ..Rep::default()
    })
}

/// Ingress wall instant of every event, by key.
fn index_stamps(stamps: &[Sample]) -> std::collections::HashMap<(u8, u32), u64> {
    stamps.iter().map(|&(s, k, w)| ((s, k), w)).collect()
}

/// The run's smallest observed wall − bus offset over all publishes: a
/// publish that ran on time, mapping bus instants onto wall time.
fn wall_minus_bus(log: &PubLog) -> i128 {
    log.at
        .iter()
        .flatten()
        .map(|&(bus, wall)| i128::from(wall) - i128::from(bus))
        .min()
        .unwrap_or(0)
}

/// The wall instant a bus instant was due at.
fn due(bus_ns: u64, offset: i128) -> u64 {
    (i128::from(bus_ns) + offset).max(0) as u64
}

/// Latency samples (ns, sorted) by class: accept instant minus `from`.
fn by_class(samples: &[Sample], from: impl Fn(u8, u32) -> Option<u64>) -> [Vec<u64>; 3] {
    let mut out: [Vec<u64>; 3] = Default::default();
    for &(subj, k, at) in samples {
        if let Some(t) = from(subj, k) {
            out[class_idx(class_of(subj))].push(at.saturating_sub(t));
        }
    }
    for v in &mut out {
        v.sort_unstable();
    }
    out
}

/// Digest of the bus delivery log and every lane's delivery digest.
fn digest(report: &LiveReport, gw: &GatewayReport) -> u64 {
    let mut h = fnv(FNV_OFFSET, &live::log_digest(report).to_le_bytes());
    for lane in &gw.lanes {
        h = fnv(h, &lane.client.to_le_bytes());
        h = fnv(h, &(lane.shard as u64).to_le_bytes());
        if let Some(d) = lane.digest {
            h = fnv(h, &d.frames.to_le_bytes());
            h = fnv(h, &d.digest.to_le_bytes());
        }
    }
    h
}

/// The rtec-live and rtec-gateway per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn gw_layers(
    report: &LiveReport,
    log: &PubLog,
    gw: &GatewayReport,
    taps: &TapTotals,
    spans: &[spans::Span],
    ingress: &std::collections::HashMap<(u8, u32), u64>,
    offset: i128,
    run_s: f64,
    finish_s: f64,
    paced: bool,
) -> Vec<(String, f64)> {
    let ingress_busy = spans::busy_s(spans, Kind::Ingress);
    let mut l = live::live_layers(report, spans, run_s, ingress_busy);
    let st = &gw.stats;
    let fanouts: Vec<f64> = gw.shards.iter().map(|s| s.fanout as f64).collect();
    let mean = fanouts.iter().sum::<f64>() / fanouts.len().max(1) as f64;
    let max = fanouts.iter().copied().fold(0.0, f64::max);
    let delivered_entries = st.delivered_hrt + st.delivered_srt + st.delivered_nrt;
    l.extend([
        (
            "gw.ingress.calls".to_string(),
            spans::count(spans, Kind::Ingress) as f64,
        ),
        ("gw.ingress.busy_s".into(), ingress_busy),
        ("gw.shard.fanout_skew".into(), max / mean.max(1e-9)),
        ("gw.finish_s".into(), finish_s),
        (
            "gw.lane.delivered_ratio".into(),
            delivered_entries as f64 / st.fanout.max(1) as f64,
        ),
        ("gw.lane.shed_nrt".into(), st.shed_nrt as f64),
        ("gw.lane.shed_srt_stale".into(), st.shed_srt_stale as f64),
        ("gw.lane.shed_srt_cap".into(), st.shed_srt_cap as f64),
        ("gw.lane.coalesced".into(), st.coalesced as f64),
        ("gw.lane.batches".into(), st.batches as f64),
        ("gw.lane.fragments".into(), st.fragments as f64),
        ("gw.lane.peak".into(), st.peak_lane_occupancy as f64),
        ("gw.sink.offers".into(), taps.offers as f64),
        (
            "gw.sink.accept_ratio".into(),
            taps.accepted as f64 / taps.offers.max(1) as f64,
        ),
        ("gw.sink.busy_s".into(), spans::busy_s(spans, Kind::Offer)),
        (
            "gw.sink.bytes_per_msg".into(),
            taps.bytes as f64 / taps.accepted.max(1) as f64,
        ),
        ("gw.session.opened".into(), gw.sessions.opened as f64),
        (
            "gw.session.replay_bytes".into(),
            gw.sessions.replay_bytes as f64,
        ),
    ]);
    // Publish → ingress (wall), by class.
    let mut bus: [Vec<u64>; 3] = Default::default();
    let mut lag = Vec::new();
    for (subj, v) in log.at.iter().enumerate() {
        for (k, &(bus_ns, wall)) in v.iter().enumerate() {
            if let Some(&t) = ingress.get(&(subj as u8, k as u32)) {
                bus[class_idx(class_of(subj as u8))].push(t.saturating_sub(wall));
            }
            lag.push(wall.saturating_sub(due(bus_ns, offset)));
        }
    }
    lag.sort_unstable();
    let us = |v: &[u64], q| measure::pct(v, q) as f64 / 1e3;
    for (i, c) in CLASS_NAMES.iter().enumerate() {
        bus[i].sort_unstable();
        l.push((format!("gw.bus_p50_us.{c}"), us(&bus[i], 0.5)));
    }
    // Ingress → accept, fast and slow clients apart.
    for (speed, samples) in ["fast", "slow"].iter().zip(&taps.samples) {
        let lat = by_class(samples, |s, k| ingress.get(&(s, k)).copied());
        for (i, c) in CLASS_NAMES.iter().enumerate() {
            l.push((format!("gw.offbus_p50_us.{c}.{speed}"), us(&lat[i], 0.5)));
            l.push((format!("gw.offbus_p99_us.{c}.{speed}"), us(&lat[i], 0.99)));
        }
    }
    if paced {
        l.push(("live.generator_lag_p50_us".into(), us(&lag, 0.5)));
        l.push(("live.generator_lag_p99_us".into(), us(&lag, 0.99)));
    }
    l
}

/// Run `gw_fanout` or `gw_paced` for `args.seconds`.
pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let p = params(mode);
    let rep = |seed, tracer: Option<&Tracer>| rep(&p, seed, tracer);
    if args.trace {
        bench::traced(p.name, args, &rep)
    } else {
        bench::end_to_end(p.name, args, &rep)
    }
}
