//! `bus_mixed`: the simulator alone (rtec-core over rtec-can and
//! rtec-sim).
//!
//! Eight nodes share one 1 Mbit/s segment: one calendared HRT channel
//! (10 ms period, omission degree 1), four SRT streams on four nodes
//! (8-byte events about every 800 µs, 5 ms deadline, 20 ms expiration)
//! and one 4 KiB NRT bulk stream kept two transfers deep, so it takes
//! whatever bandwidth the real-time classes leave. Light seeded
//! omission faults strike the HRT channel's first transmission in about
//! one round in twenty; its omission degree of 1 covers them.
//!
//! Every input comes from the seed: the HRT staging instants, the SRT
//! phases and gaps, and the fault rounds. SRT and NRT publishing stops
//! before the horizon so every transfer can complete.

use crate::bench::{self, Rep};
use crate::measure::{self, check, fnv, Outcome, FNV_OFFSET};
use crate::publish::{payload, CLASS_NAMES, HRT_SUBJECT, NRT_BASE, SRT_BASE};
use crate::spans::{Kind, Tracer};
use crate::Args;
use rtec_can::bits::BitTiming;
use rtec_can::fault::FaultModel;
use rtec_core::channel::{ChannelSpec, HrtSpec, NrtSpec, SrtSpec, SubscribeSpec};
use rtec_core::event::{Event, EventQueue, Subject};
use rtec_core::node::{unpack_tag, TagKind};
use rtec_core::prelude::NodeId;
use rtec_core::{ChannelStats, Network};
use rtec_sim::{Duration, Rng, Time, TraceEvent, TraceSink};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// Bus time simulated per repetition.
const HORIZON: Duration = Duration::from_secs(4);
/// No SRT publish in the last 20 ms and no NRT transfer in the last
/// 1.2 s (the two transfers outstanding take about 900 ms), so both
/// complete under the same SRT load they met all along.
const SRT_UNTIL: Time = Time::from_ms(3_980);
const NRT_UNTIL: Time = Time::from_ms(2_800);
const SRT_EVERY: Duration = Duration::from_us(800);
const NRT_BYTES: usize = 4096;
/// NRT transfers kept outstanding (published, not yet delivered).
const NRT_DEPTH: u64 = 2;
/// Probability that a round's first HRT transmission is omitted.
const HRT_OMIT_P: f64 = 0.05;

const SRT_NODES: [u8; 4] = [1, 2, 3, 4];
const NRT_NODE: u8 = 5;
const NRT_SUB: u8 = 6;
const SUB: u8 = 7;

fn srt_subject(i: usize) -> Subject {
    Subject(SRT_BASE + i as u64)
}
const NRT_SUBJECT: Subject = Subject(NRT_BASE);

/// Publish instants (bus ns) by stream: HRT, SRT 0..4, NRT.
#[derive(Default)]
struct SimLog {
    at: [Vec<u64>; 6],
    failed_publishes: u64,
}

struct Built {
    net: Network,
    log: Rc<RefCell<SimLog>>,
    hrt_q: EventQueue,
    nrt_q: EventQueue,
    etags: [u16; 6],
    sink: Option<TraceSink>,
}

fn stream_of(etags: &[u16; 6], etag: u16) -> Option<usize> {
    etags.iter().position(|&e| e == etag)
}

fn build(seed: u64, traced: bool) -> Built {
    let mut net = Network::builder()
        .nodes(8)
        .round(Duration::from_ms(10))
        .seed(seed)
        .build();
    let sink = traced.then(|| net.enable_trace());
    let mut rng = Rng::seed_from_u64(seed ^ 0xB05_B05);
    let (hrt_q, nrt_q) = {
        let mut api = net.api();
        api.announce(
            NodeId(0),
            HRT_SUBJECT,
            ChannelSpec::hrt(HrtSpec {
                period: Duration::from_ms(10),
                dlc: 8,
                omission_degree: 1,
                sporadic: false,
            }),
        )
        .expect("announce HRT");
        let hrt_q = api
            .subscribe(NodeId(SUB), HRT_SUBJECT, SubscribeSpec::default())
            .expect("subscribe HRT");
        for (i, &n) in SRT_NODES.iter().enumerate() {
            api.announce(
                NodeId(n),
                srt_subject(i),
                ChannelSpec::srt(SrtSpec {
                    default_deadline: Duration::from_ms(5),
                    default_expiration: Some(Duration::from_ms(20)),
                }),
            )
            .expect("announce SRT");
            api.subscribe(NodeId(SUB), srt_subject(i), SubscribeSpec::default())
                .expect("subscribe SRT");
        }
        api.announce(
            NodeId(NRT_NODE),
            NRT_SUBJECT,
            ChannelSpec::nrt(NrtSpec::bulk()),
        )
        .expect("announce NRT");
        let q = api
            .subscribe(NodeId(NRT_SUB), NRT_SUBJECT, SubscribeSpec::default())
            .expect("subscribe NRT");
        api.install_calendar().expect("calendar admission");
        (hrt_q, q)
    };
    let reg = net.world().registry();
    let etag = |s: Subject| reg.etag_of(s).expect("subject bound");
    let etags = [
        etag(HRT_SUBJECT),
        etag(srt_subject(0)),
        etag(srt_subject(1)),
        etag(srt_subject(2)),
        etag(srt_subject(3)),
        etag(NRT_SUBJECT),
    ];
    net.world_mut()
        .bus
        .injector_mut()
        .set_model(FaultModel::OmitRun {
            etag: Some(etags[0]),
            run_len: 1,
        });
    let log = Rc::new(RefCell::new(SimLog::default()));

    // HRT: round k is staged 300 µs – 2.3 ms before its slot; every
    // round whose deadline falls inside the horizon is published.
    let plan = net.world().calendar().expect("calendar installed").clone();
    let slot = plan.slots[0];
    let start = net.world().calendar_start().expect("calendar installed");
    for k in 0u64.. {
        let base = start + plan.round * k;
        if base + slot.deadline() > Time::ZERO + HORIZON {
            break;
        }
        let lead = Duration::from_us(300 + rng.gen_range_u64(2_000));
        let at = (base + slot.start).saturating_sub(lead);
        let omit = rng.gen_bool(HRT_OMIT_P);
        let log = Rc::clone(&log);
        net.at(at, move |api| {
            if omit {
                api.world_mut().bus.injector_mut().reset_runs();
            }
            pub_one(api, &log, 0, NodeId(0), HRT_SUBJECT, 8);
        });
    }
    // SRT: seeded phase, then the mean gap ± 10 %.
    for (i, &n) in SRT_NODES.iter().enumerate() {
        let mut t = Time::from_us(200 + rng.gen_range_u64(800));
        while t < SRT_UNTIL {
            let log = Rc::clone(&log);
            net.at(t, move |api| {
                pub_one(api, &log, 1 + i, NodeId(n), srt_subject(i), 8);
            });
            let ns = SRT_EVERY.as_ns();
            t += Duration::from_ns(ns - ns / 10 + rng.gen_range_u64(ns / 5 + 1));
        }
    }
    // NRT: closed loop, `NRT_DEPTH` transfers outstanding.
    let nrt_etag = etags[5];
    let nlog = Rc::clone(&log);
    net.every(
        Duration::from_ms(1),
        Duration::from_us(rng.gen_range_u64(1_000)),
        move |api| {
            if api.now() >= NRT_UNTIL {
                return;
            }
            let sent = nlog.borrow().at[5].len() as u64;
            let done = api.stats().channel(nrt_etag).delivered;
            if sent - done.min(sent) < NRT_DEPTH {
                pub_one(api, &nlog, 5, NodeId(NRT_NODE), NRT_SUBJECT, NRT_BYTES);
            }
        },
    );
    Built {
        net,
        log,
        hrt_q,
        nrt_q,
        etags,
        sink,
    }
}

fn pub_one(
    api: &mut rtec_core::NetApi<'_>,
    log: &Rc<RefCell<SimLog>>,
    stream: usize,
    node: NodeId,
    subject: Subject,
    bytes: usize,
) {
    let mut l = log.borrow_mut();
    let counter = l.at[stream].len() as u64;
    l.at[stream].push(api.now().as_ns());
    if api
        .publish(node, subject, Event::new(subject, payload(counter, bytes)))
        .is_err()
    {
        l.failed_publishes += 1;
    }
}

fn rep(seed: u64, tracer: Option<&Tracer>) -> Result<Rep, String> {
    let t0 = Instant::now();
    let Built {
        mut net,
        log,
        hrt_q,
        nrt_q,
        etags,
        sink,
    } = build(seed, tracer.is_some());
    let setup_s = measure::since(t0);

    let cpu0 = measure::cpu_s();
    let rss0 = measure::rss_mb();
    let w0 = tracer.map(|t| t.clock.now_ns());
    let t1 = Instant::now();
    net.run_for(HORIZON);
    let run_s = measure::since(t1);
    let cpu_s = measure::cpu_s() - cpu0;
    let span_lines = match (tracer, w0) {
        (Some(t), Some(w0)) => {
            t.record(Kind::Run, w0, t.clock.now_ns());
            crate::spans::summary(&t.finish())
        }
        _ => Vec::new(),
    };

    let st = net.stats();
    let ch = |i: usize| st.channel(etags[i]);
    let hrt = ch(0);
    let srt: Vec<ChannelStats> = (1..=4).map(ch).collect();
    let nrt_ch = ch(5);
    let bus = net.world().bus.stats;
    let log = log.borrow();

    // Correctness gate. A missing HRT slot is counted as a failed
    // operation, not a failed run: see README.md, "Known defect".
    let bound = BitTiming::MBIT_1.delta_t_wait_tight();
    check(st.max_lst_blocking() <= bound, || {
        format!(
            "bus_mixed: LST blocking {} exceeds the tight bound {}",
            st.max_lst_blocking(),
            bound
        )
    })?;
    let hrt_done = hrt_q.drain();
    check(
        hrt_done.len() as u64 + hrt.missing_events == hrt.published,
        || {
            format!(
                "bus_mixed: HRT published {}, delivered {}, missing {}",
                hrt.published,
                hrt_done.len(),
                hrt.missing_events
            )
        },
    )?;

    let srt_pub: u64 = srt.iter().map(|c| c.published).sum();
    let srt_miss: u64 = srt.iter().map(|c| c.deadline_misses).sum();
    let srt_exp: u64 = srt.iter().map(|c| c.expired_drops).sum();
    let nrt_done = nrt_q.drain();
    let nrt_pub = log.at[5].len() as u64;
    let attempted = log.at.iter().map(|v| v.len() as u64).sum::<u64>();
    let failed = log.failed_publishes
        + srt_miss
        + srt_exp
        + hrt.missing_events
        + nrt_pub.saturating_sub(nrt_done.len() as u64);
    check(attempted > 0 && nrt_pub > 0, || {
        "bus_mixed: nothing was published".into()
    })?;

    // Latency from the application's publish call. (The HRT channel's
    // own histogram starts at the slot's ready instant instead.)
    let from_publish = |stream: usize, d: &rtec_core::event::Delivery| {
        let k = crate::publish::counter_of(&d.event.content)? as usize;
        Some((d.delivered_at.as_ns(), *log.at[stream].get(k)?))
    };
    let hrt_lat: Vec<u64> = hrt_done
        .iter()
        .filter_map(|d| from_publish(0, d).map(|(at, p)| at.saturating_sub(p)))
        .collect();
    let nrt: Vec<(u64, u64, usize)> = nrt_done
        .iter()
        .filter_map(|d| from_publish(5, d).map(|(at, p)| (p, at, d.event.content.len())))
        .collect();
    let srt_lat: Vec<u64> = srt
        .iter()
        .flat_map(|c| c.latency_ns.samples().to_vec())
        .collect();

    let mut fp = FNV_OFFSET;
    for v in [
        bus.frames_ok,
        bus.arbitrations,
        bus.bits_ok,
        bus.busy.as_ns(),
    ] {
        fp = fnv(fp, &v.to_le_bytes());
    }
    for c in std::iter::once(&hrt)
        .chain(&srt)
        .chain(std::iter::once(&nrt_ch))
    {
        for v in [c.published, c.delivered, c.deadline_misses, c.expired_drops] {
            fp = fnv(fp, &v.to_le_bytes());
        }
        for &s in c.latency_ns.samples() {
            fp = fnv(fp, &s.to_le_bytes());
        }
    }

    let mut layer = Vec::new();
    if let Some(sink) = &sink {
        let report = rtec_conformance::check_network(&net, sink);
        check(report.passes(), || {
            format!("bus_mixed: conformance check failed:\n{report}")
        })?;
        let busy = bus.busy.as_ns().max(1) as f64;
        layer = vec![
            ("sim.events".into(), net.dispatched() as f64),
            (
                "sim.rss_mb_per_bus_s".into(),
                (measure::rss_mb() - rss0).max(0.0) / HORIZON.as_secs_f64(),
            ),
            ("can.frames_ok".into(), bus.frames_ok as f64),
            ("can.frames_corrupted".into(), bus.frames_corrupted as f64),
            ("can.arbitrations".into(), bus.arbitrations as f64),
            ("can.util".into(), bus.utilization(HORIZON)),
            (
                "core.hrt.redundant_tx".into(),
                hrt.redundant_transmissions as f64,
            ),
            ("core.hrt.missing_slots".into(), hrt.missing_events as f64),
            (
                "core.hrt.lst_blocking_max_bus_us".into(),
                st.max_lst_blocking().as_us_f64(),
            ),
            ("core.srt.deadline_misses".into(), srt_miss as f64),
            ("core.srt.expired_drops".into(), srt_exp as f64),
            ("core.nrt.transfers_done".into(), nrt_done.len() as f64),
        ];
        for (i, c) in CLASS_NAMES.iter().enumerate() {
            layer.push((
                format!("can.busy_frac.{c}"),
                bus.busy_by_band[i].as_ns() as f64 / busy,
            ));
        }
        let plan = net.world().calendar().expect("calendar installed");
        let start = net.world().calendar_start().expect("calendar installed");
        let calendar = (start.as_ns(), plan.round.as_ns());
        let stages = stage_p99s(&sink.events(), &etags, &log.at, calendar)?;
        for (i, c) in CLASS_NAMES.iter().enumerate() {
            for (j, s) in ["queue", "wire", "hold"].iter().enumerate() {
                layer.push((format!("core.{c}.{s}_p99_bus_us"), stages[i][j]));
            }
        }
    }

    Ok(Rep {
        setup_s,
        frames_host_s: run_s,
        deliveries_host_s: run_s,
        cpu_s,
        frames: bus.frames_ok,
        deliveries: st.total_delivered(),
        bus_lat: [hrt_lat, srt_lat, nrt_ch.latency_ns.samples().to_vec()],
        nrt,
        srt_published: srt_pub,
        srt_misses: srt_miss,
        wall_lat: None,
        paced: false,
        events: net.dispatched(),
        digest: fp,
        attempted,
        failed,
        layer,
        spans: span_lines,
        speed: 1.0,
    })
}

/// One message's stage instants (bus ns).
#[derive(Clone, Copy)]
struct Stamps {
    publish: u64,
    tx_start: u64,
    tx_end: u64,
}

/// Per-class p99 of the three bus stages (µs): publish → first
/// `tx_start`, first `tx_start` → last `tx_end`, last `tx_end` →
/// delivery. SRT messages are matched by (etag, sequence) and HRT
/// attempts by calendar round (round k carries publish k); NRT
/// transfers are sequential, so the k-th one matches the k-th publish.
/// Delivery is the `hrt_deliver` record for HRT, the `nrt_complete`
/// record for NRT and the frame's end for SRT (delivered on reception).
/// A round whose slot went missing has no delivery and no stages.
fn stage_p99s(
    trace: &[TraceEvent],
    etags: &[u16; 6],
    at: &[Vec<u64>; 6],
    calendar: (u64, u64),
) -> Result<[[f64; 3]; 3], String> {
    let (cal_start, round) = calendar;
    // Open messages by (stream, key): SRT sequence, HRT round, NRT
    // transfer ordinal.
    let mut open: HashMap<(usize, u64), Stamps> = HashMap::new();
    let mut nrt_opened = 0u64;
    let mut stages: [[Vec<u64>; 3]; 3] = Default::default();
    let mut finish = |class: usize, s: Stamps, deliver: u64| {
        stages[class][0].push(s.tx_start.saturating_sub(s.publish));
        stages[class][1].push(s.tx_end.saturating_sub(s.tx_start));
        stages[class][2].push(deliver.saturating_sub(s.tx_end));
    };
    for e in trace {
        let t = e.time.as_ns();
        match e.kind {
            "hrt_deliver" => {
                let r = e.field("round").unwrap_or(u64::MAX);
                if let Some(s) = open.remove(&(0, r)) {
                    finish(0, s, t);
                }
                continue;
            }
            "nrt_complete" => {
                if let Some(s) = open.remove(&(5, nrt_opened.saturating_sub(1))) {
                    finish(2, s, t);
                }
                continue;
            }
            _ => {}
        }
        let Some((kind, etag, seq)) = e.field("tag").and_then(unpack_tag) else {
            continue;
        };
        let Some(stream) = stream_of(etags, etag) else {
            continue;
        };
        let key = match kind {
            TagKind::Hrt => (0, t.saturating_sub(cal_start) / round),
            TagKind::Srt => (stream, u64::from(seq)),
            TagKind::Nrt
                if e.kind != "tx_end"
                    && seq == 0
                    && !open.contains_key(&(5, nrt_opened.wrapping_sub(1))) =>
            {
                nrt_opened += 1;
                (5, nrt_opened - 1)
            }
            TagKind::Nrt => (5, nrt_opened.saturating_sub(1)),
            _ => continue,
        };
        match e.kind {
            "tx_start" | "tx_start_omit" | "tx_start_corrupt" => {
                if let std::collections::hash_map::Entry::Vacant(slot) = open.entry(key) {
                    let publish = at[key.0].get(key.1 as usize).copied().ok_or_else(|| {
                        format!("bus_mixed: the trace names message {key:?}, never published")
                    })?;
                    slot.insert(Stamps {
                        publish,
                        tx_start: t,
                        tx_end: t,
                    });
                }
            }
            "tx_end" => {
                if kind == TagKind::Srt {
                    if let Some(mut s) = open.remove(&key) {
                        s.tx_end = t;
                        finish(1, s, t);
                    }
                } else if let Some(s) = open.get_mut(&key) {
                    s.tx_end = t;
                }
            }
            _ => {}
        }
    }
    let mut out = [[0.0; 3]; 3];
    for (c, row) in stages.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            v.sort_unstable();
            out[c][j] = measure::pct(v, 0.99) as f64 / 1e3;
        }
    }
    Ok(out)
}

/// Run `bus_mixed` for `args.seconds`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        bench::traced("bus_mixed", args, &rep)
    } else {
        bench::end_to_end("bus_mixed", args, &rep)
    }
}
