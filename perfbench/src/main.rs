//! End-to-end and per-layer benchmark of the hdSMT simulator, its campaign
//! engine and its sweep daemon. See README.md.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`). The exit code is 0 only when
//! every check passed.

mod bench;
mod lru;
mod rvref;
mod spans;
mod stats;
mod sweep;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed the README's reference figures were measured with.
const DEFAULT_SEED: u64 = 1;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        workload::NAMES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--sweep-child") {
        let [_, spec, cache] = args.as_slice() else { usage() };
        if let Err(e) = sweep::child(spec, cache) {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let (mut name, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(v) = it.next() else { usage() };
        match a.as_str() {
            "--workload" => name = Some(v.clone()),
            "--seed" => seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = v == "1",
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };
    let Some(w) = workload::build(&name, seed) else { usage() };

    let out_dir = PathBuf::from(".perfbench");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let opts = bench::Opts {
        workload: w,
        seconds,
        trace,
        spans_path: out_dir.join(format!("spans-{name}-seed{seed}.jsonl")),
        work: work.clone(),
    };
    let result = bench::run(&opts);
    let _ = std::fs::remove_dir_all(&work);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(1);
        }
    };

    let mut metrics = String::new();
    for (i, (m, v, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{m}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    );
    if !report.correct {
        std::process::exit(1);
    }
}
