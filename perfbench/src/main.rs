//! The repository benchmark.
//!
//! ```text
//! rtec-perfbench --workload <bus_mixed|live_mixed|gw_fanout|gw_paced>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` of wall time, checks that
//! its outputs are correct, prints every metric by name with its unit,
//! and ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` measures the end-to-end metrics with tracing
//! off; `--trace 1` is the traced run that gives the per-layer metrics
//! and the tracing overhead. A failed correctness check ends the run
//! with exit code 1 and no result line. See `README.md`.

mod bench;
mod bus;
mod gw;
mod layers;
mod live;
mod measure;
mod publish;
mod spans;

use measure::Outcome;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()? as f64),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_num(v: f64) -> String {
    // Finite by construction; `{:?}` keeps every digit of an f64.
    format!("{v:?}")
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtec-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result: Result<Outcome, String> = match args.workload.as_str() {
        "bus_mixed" => bus::run(&args),
        "live_mixed" => live::run(&args),
        "gw_fanout" => gw::run(&args, gw::Mode::Fanout),
        "gw_paced" => gw::run(&args, gw::Mode::Paced),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rtec-perfbench: check failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("rtec-perfbench: metric {} is not a number", m.name);
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} rustc=\"{}\" profile={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, json_num(m.value), m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
