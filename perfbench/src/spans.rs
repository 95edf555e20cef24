//! Spans recorded by the traced run around the benchmark's calls into
//! each layer.
//!
//! A span has a kind (its name), a wall-clock start and end, the key of
//! the event it belongs to (subject index, publish counter) and a
//! parent. Recording sites on the node and shard threads buffer spans
//! locally and hand them to the shared collector when they are dropped,
//! so the hot path takes no lock. Parents are linked once the run has
//! ended: a publish span's parent is the run span, an ingress span's
//! parent is the publish span of the same event, and an offer span's
//! parent is the ingress span of the same event.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which boundary a span wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Network::run_for` or `Cluster::run_for`.
    Run,
    /// `NodeCtx::publish` inside a benchmark publisher.
    Publish,
    /// The gateway behavior's `on_delivery`.
    Ingress,
    /// `ClientSink::offer` on a simulated client.
    Offer,
    /// `Gateway::finish`.
    Finish,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "run_for",
            Kind::Publish => "node.publish",
            Kind::Ingress => "gw.on_delivery",
            Kind::Offer => "sink.offer",
            Kind::Finish => "gw.finish",
        }
    }
}

/// No event key / no parent.
pub const NONE: u32 = u32::MAX;
/// Subject index of a span with no event key.
pub const NO_SUBJ: u8 = u8::MAX;

/// Flag bits on a span.
pub const ACCEPTED: u8 = 1;
pub const FAST: u8 = 2;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Publish counter of the event (`NONE` when the span has no key).
    pub counter: u32,
    /// Index of the causing span in the merged list (`NONE` = root).
    pub parent: u32,
    pub kind: Kind,
    /// Subject index of the event (`NO_SUBJ` when the span has no key).
    pub subj: u8,
    pub flags: u8,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Wall clock shared by every recording site of one run.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The run-wide span collector (cheap to clone).
#[derive(Clone)]
pub struct Tracer {
    pub clock: Clock,
    all: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(clock: Clock) -> Self {
        Tracer {
            clock,
            all: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A thread-local buffer that merges into this collector on drop.
    pub fn local(&self) -> Local {
        Local {
            tracer: self.clone(),
            buf: Vec::new(),
        }
    }

    /// Record one span directly (for the few spans taken on the
    /// benchmark's own thread).
    pub fn record(&self, kind: Kind, start_ns: u64, end_ns: u64) {
        self.all
            .lock()
            .expect("span collector poisoned")
            .push(Span {
                start_ns,
                end_ns,
                counter: NONE,
                parent: NONE,
                kind,
                subj: NO_SUBJ,
                flags: 0,
            });
    }

    /// Every span recorded so far, with parents linked.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.all.lock().expect("span collector poisoned"));
        link_parents(&mut spans);
        spans
    }
}

/// A recording site's private span buffer.
pub struct Local {
    tracer: Tracer,
    buf: Vec<Span>,
}

impl Local {
    pub fn now_ns(&self) -> u64 {
        self.tracer.clock.now_ns()
    }

    pub fn push(
        &mut self,
        kind: Kind,
        start_ns: u64,
        end_ns: u64,
        key: Option<(u8, u32)>,
        flags: u8,
    ) {
        let (subj, counter) = key.unwrap_or((NO_SUBJ, NONE));
        self.buf.push(Span {
            start_ns,
            end_ns,
            counter,
            parent: NONE,
            kind,
            subj,
            flags,
        });
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut all) = self.tracer.all.lock() {
            all.append(&mut self.buf);
        }
    }
}

fn link_parents(spans: &mut [Span]) {
    let run = spans
        .iter()
        .position(|s| s.kind == Kind::Run)
        .map_or(NONE, |i| i as u32);
    let mut publish: HashMap<(u8, u32), u32> = HashMap::new();
    let mut ingress: HashMap<(u8, u32), u32> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let key = (s.subj, s.counter);
        match s.kind {
            Kind::Publish => {
                publish.insert(key, i as u32);
            }
            Kind::Ingress => {
                ingress.insert(key, i as u32);
            }
            _ => {}
        }
    }
    for s in spans.iter_mut() {
        let key = (s.subj, s.counter);
        s.parent = match s.kind {
            Kind::Run => NONE,
            Kind::Publish | Kind::Finish => run,
            Kind::Ingress => publish.get(&key).copied().unwrap_or(run),
            Kind::Offer => ingress.get(&key).copied().unwrap_or(run),
        };
    }
}

/// Sum of span durations of one kind, in seconds.
pub fn busy_s(spans: &[Span], kind: Kind) -> f64 {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.dur_ns() as f64)
        .sum::<f64>()
        / 1e9
}

/// Number of spans of one kind.
pub fn count(spans: &[Span], kind: Kind) -> u64 {
    spans.iter().filter(|s| s.kind == kind).count() as u64
}

/// One line per span kind: how many, how many have a parent, their
/// total duration, and for offers how many were accepted, and by fast
/// clients.
pub fn summary(spans: &[Span]) -> Vec<String> {
    [
        Kind::Run,
        Kind::Publish,
        Kind::Ingress,
        Kind::Offer,
        Kind::Finish,
    ]
    .iter()
    .filter(|&&k| count(spans, k) > 0)
    .map(|&k| {
        let of_kind = || spans.iter().filter(move |s| s.kind == k);
        let mut line = format!(
            "spans {}: {} recorded, {} with a parent, {:.6} s in total",
            k.name(),
            of_kind().count(),
            of_kind().filter(|s| s.parent != NONE).count(),
            busy_s(spans, k),
        );
        if k == Kind::Offer {
            let accepted = of_kind().filter(|s| s.flags & ACCEPTED != 0);
            let fast = accepted.clone().filter(|s| s.flags & FAST != 0).count();
            line += &format!(", {} accepted ({fast} by fast clients)", accepted.count());
        }
        line
    })
    .collect()
}
