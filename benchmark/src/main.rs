//! The ocean benchmark: one command, three workloads, each served by one
//! closed-loop client in one process.
//!
//! ```text
//! dwr-benchmark --workload <cold_fanout|hot_batch|soak_storm> --seed <n> \
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics and records
//! no spans; with `--trace 1` it records spans around its calls into each
//! layer and prints the per-layer metrics instead. Every answer is
//! checked; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod cold;
mod hot;
mod inputs;
mod layers;
mod measure;
mod oracle;
mod probes;
mod storm;
mod trace;

use measure::Report;
use std::path::PathBuf;
use trace::Tracer;

/// Scatter workers: two, or fewer on a smaller machine — no workload runs
/// more worker threads than the machine has hardware threads.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn render(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Where the traced run writes its spans: beside the build output.
fn span_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/target"));
    dir.join("spans").join(format!("{workload}-{seed}.tsv"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dwr-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "cold_fanout" => cold::run(args.seed, args.seconds, &mut tr),
        "hot_batch" => hot::run(args.seed, args.seconds, &mut tr),
        "soak_storm" => storm::run(args.seed, args.seconds, &mut tr),
        other => {
            eprintln!("dwr-benchmark: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for m in &report.metrics.0 {
        if !m.value.is_finite() {
            eprintln!("dwr-benchmark: metric {} is not finite ({})", m.name, m.value);
            report.correct = false;
        }
    }
    if args.trace {
        let path = span_path(&args.workload, args.seed);
        if let Err(e) = tr.write(&path) {
            eprintln!("dwr-benchmark: could not write spans to {}: {e}", path.display());
        }
    }
    for m in &report.metrics.0 {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "attempted {}  failed {}  correct {}",
        report.attempted, report.failed, report.correct
    );
    println!("{}", render(&report));
}
