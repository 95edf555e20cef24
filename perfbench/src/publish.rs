//! The benchmark's publishers on the live cluster, and the subjects
//! every workload uses.
//!
//! Each event's payload starts with its publish counter (8 bytes, little
//! endian), so any receiver recovers the event key (subject, counter)
//! from the bytes alone. Publishers log the bus and wall instant of
//! every publish, count failed publish calls and the SRT exceptions
//! raised at the publishing node, and (in the traced run) record a span
//! around every `NodeCtx::publish`.

use crate::spans::{Clock, Kind, Local, Tracer};
use rtec_core::channel::{ChannelClass, ChannelException, ChannelSpec};
use rtec_core::event::{Event, Subject};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_sim::{Duration, Rng, Time};
use std::sync::{Arc, Mutex};

pub const HRT_SUBJECT: Subject = Subject(0xA001);
pub const SRT_BASE: u64 = 0xA100;
pub const NRT_BASE: u64 = 0xA200;

/// Small index of a benchmark subject (HRT 0, SRT 1..=4, NRT 5..),
/// used as the subject half of an event key.
pub fn subj_index(uid: u64) -> u8 {
    match uid {
        0xA001 => 0,
        u if (SRT_BASE..SRT_BASE + 4).contains(&u) => 1 + (u - SRT_BASE) as u8,
        u if (NRT_BASE..NRT_BASE + 8).contains(&u) => 5 + (u - NRT_BASE) as u8,
        _ => crate::spans::NO_SUBJ,
    }
}

/// Class of a subject index.
pub fn class_of(subj: u8) -> ChannelClass {
    match subj {
        0 => ChannelClass::Hrt,
        1..=4 => ChannelClass::Srt,
        _ => ChannelClass::Nrt,
    }
}

/// Class index for per-class arrays: HRT 0, SRT 1, NRT 2.
pub fn class_idx(c: ChannelClass) -> usize {
    match c {
        ChannelClass::Hrt => 0,
        ChannelClass::Srt => 1,
        ChannelClass::Nrt => 2,
    }
}

pub const CLASS_NAMES: [&str; 3] = ["hrt", "srt", "nrt"];

/// The event key carried in a payload's first 8 bytes.
pub fn counter_of(payload: &[u8]) -> Option<u64> {
    payload
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// A payload of `len` bytes (at least 8) starting with `counter`.
pub fn payload(counter: u64, len: usize) -> Vec<u8> {
    let mut p = vec![0x5A; len.max(8)];
    p[..8].copy_from_slice(&counter.to_le_bytes());
    p
}

/// One published stream.
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    pub subject: Subject,
    pub spec: ChannelSpec,
    /// Mean gap between publishes (HRT: ignored, the calendar period
    /// rules).
    pub every: Duration,
    /// First publish after start (SRT/NRT).
    pub phase: Duration,
    /// No publish at or after this bus instant (SRT/NRT), so that what
    /// was published completes before the horizon.
    pub until: Time,
    /// Payload length in bytes.
    pub bytes: usize,
}

/// What all publishers of one run logged, merged when they drop.
#[derive(Debug, Default)]
pub struct PubLog {
    /// Per subject index: `(bus_ns, wall_ns)` of every publish, indexed
    /// by publish counter.
    pub at: [Vec<(u64, u64)>; 8],
    pub failed_publishes: u64,
    pub srt_deadline_misses: u64,
    pub srt_expired: u64,
}

impl PubLog {
    pub fn published(&self) -> u64 {
        self.at.iter().map(|v| v.len() as u64).sum()
    }
}

struct StreamState {
    s: Stream,
    subj: u8,
    counter: u64,
    /// HRT: the un-jittered staging instant of the next round.
    hrt_base: Time,
    hrt_period: Duration,
}

/// A node that publishes a set of streams: HRT every round, SRT and NRT
/// until their `until` instants.
pub struct Publisher {
    streams: Vec<StreamState>,
    rng: Rng,
    /// Largest seeded advance of an HRT staging instant.
    hrt_jitter: Duration,
    clock: Clock,
    log: PubLog,
    out: Arc<Mutex<PubLog>>,
    spans: Option<Local>,
}

impl Publisher {
    pub fn new(
        streams: &[Stream],
        seed: u64,
        clock: Clock,
        out: Arc<Mutex<PubLog>>,
        tracer: Option<&Tracer>,
    ) -> Self {
        Publisher {
            streams: streams
                .iter()
                .map(|s| StreamState {
                    s: *s,
                    subj: subj_index(s.subject.uid()),
                    counter: 0,
                    hrt_base: Time::ZERO,
                    hrt_period: Duration::ZERO,
                })
                .collect(),
            rng: Rng::seed_from_u64(seed),
            hrt_jitter: Duration::from_ms(2),
            clock,
            log: PubLog::default(),
            out,
            spans: tracer.map(Tracer::local),
        }
    }

    fn publish(&mut self, ctx: &mut NodeCtx<'_>, i: usize) {
        let st = &mut self.streams[i];
        let counter = st.counter;
        st.counter += 1;
        let subj = st.subj as usize;
        let ev = Event::new(st.s.subject, payload(counter, st.s.bytes));
        let t0 = self.clock.now_ns();
        let res = ctx.publish(ev);
        let t1 = self.clock.now_ns();
        if let Some(sp) = self.spans.as_mut() {
            sp.push(Kind::Publish, t0, t1, Some((subj as u8, counter as u32)), 0);
        }
        self.log.at[subj].push((ctx.now().as_ns(), t0));
        if res.is_err() {
            self.log.failed_publishes += 1;
        }
    }

    /// Next gap of a jittered stream: the mean ± 10 %.
    fn gap(&mut self, every: Duration) -> Duration {
        let ns = every.as_ns();
        Duration::from_ns(ns - ns / 10 + self.rng.gen_range_u64(ns / 5 + 1))
    }

    fn arm_hrt(&mut self, ctx: &mut NodeCtx<'_>, i: usize) {
        let advance = self.rng.gen_range_u64(self.hrt_jitter.as_ns() + 1);
        let st = &self.streams[i];
        let at = st.hrt_base.saturating_sub(Duration::from_ns(advance));
        ctx.set_timer(at.max(ctx.now()), i as u64)
            .expect("arm HRT staging timer");
    }
}

impl Behavior for Publisher {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for i in 0..self.streams.len() {
            let s = self.streams[i].s;
            if matches!(s.spec, ChannelSpec::Hrt(_)) {
                // Round 0 is staged at start; later rounds at a seeded
                // instant up to `hrt_jitter` before the staging time.
                self.publish(ctx, i);
                let (at, period) = ctx
                    .hrt_stage_schedule(s.subject)
                    .expect("HRT publication has a calendar slot");
                self.streams[i].hrt_base = at;
                self.streams[i].hrt_period = period;
                self.arm_hrt(ctx, i);
            } else {
                ctx.set_timer(ctx.now() + s.phase, i as u64)
                    .expect("arm publish timer");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, payload: u64) {
        let i = payload as usize;
        let s = self.streams[i].s;
        let hrt = matches!(s.spec, ChannelSpec::Hrt(_));
        // HRT keeps publishing to the horizon: an unpublished round of a
        // periodic channel would be a missing slot.
        if !hrt && ctx.now() >= s.until {
            return;
        }
        self.publish(ctx, i);
        if hrt {
            let st = &mut self.streams[i];
            st.hrt_base += st.hrt_period;
            self.arm_hrt(ctx, i);
        } else {
            let gap = self.gap(s.every);
            ctx.set_timer(ctx.now() + gap, payload)
                .expect("arm publish timer");
        }
    }

    fn on_exception(&mut self, _ctx: &mut NodeCtx<'_>, exception: &ChannelException) {
        match exception {
            ChannelException::DeadlineMissed { .. } => self.log.srt_deadline_misses += 1,
            ChannelException::Expired { .. } => self.log.srt_expired += 1,
            _ => {}
        }
    }
}

impl Drop for Publisher {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let log = std::mem::take(&mut self.log);
            for (i, v) in log.at.into_iter().enumerate() {
                if !v.is_empty() {
                    out.at[i] = v;
                }
            }
            out.failed_publishes += log.failed_publishes;
            out.srt_deadline_misses += log.srt_deadline_misses;
            out.srt_expired += log.srt_expired;
        }
    }
}

/// A subscriber node that only receives (deliveries land in the
/// cluster's delivery log).
pub struct Subscriber;
impl Behavior for Subscriber {}
