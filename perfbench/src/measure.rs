//! Host measurements and the result shape every workload returns.
//!
//! CPU time and peak memory come from procfs (`/proc/self/stat`,
//! `/proc/self/status`), the only source the standard library leaves
//! on Linux without a libc binding.

use std::time::Instant;

/// One metric as printed: name, value, unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (diagnostics
    /// that are not gated metrics, such as wall-clock tails).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Process user + system CPU time so far, in seconds (all threads,
/// including ones that already exited).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Clock ticks per second of `/proc/self/stat` (100 on every Linux
/// ABI this benchmark targets).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of the process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size, in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an already sorted sample (0 when empty).
pub fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Wall seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over a byte stream, chainable.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The repetition loop shared by every workload: run `rep` until
/// `seconds` of wall time have passed (at least `min_reps` times) and
/// return every repetition's result.
pub fn repeat<R>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> Result<R, String>,
) -> Result<Vec<R>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || since(start) < seconds {
        out.push(rep(out.len())?);
    }
    Ok(out)
}

/// Fail the run with `msg` unless `ok`.
pub fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Wall time of a fixed single-threaded integer kernel, in seconds: a
/// probe of the host's current speed.
pub fn probe_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v = vec![0u64; 4096];
    for i in 0..400_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        let j = (x >> 52) as usize;
        v[j] = v[j].wrapping_add(x ^ (x >> 29));
    }
    std::hint::black_box(&v);
    since(t)
}
