//! The repository's end-to-end benchmark.  One process runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//!           [--baseline-mops <x>] [--trace-out <file>]
//! ```
//!
//! It prints informational lines, then one JSON result line: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`, which needs
//! the `stats` feature), the operations attempted and those that failed an
//! answer check.  It exits non-zero if any check failed.  `run.py` builds it
//! and supplies `--baseline-mops` and `--trace-out` for traced runs.

mod alloc;
mod checks;
mod common;
mod map;
mod report;
mod rng;
#[cfg(test)]
mod selftest;
mod sets;
mod trace;

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lfbst::{Config, LfBst};

use common::Ctx;
use report::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["read-mostly", "write-heavy", "hot-range-map"];

fn config(traced: bool) -> Config {
    Config::new().record_stats(traced)
}

fn run(workload: &str, ctx: &Ctx) -> Report {
    match workload {
        "read-mostly" => {
            sets::run(ctx, sets::READ_MOSTLY, |t| LfBst::<u64>::with_config(config(t)))
        }
        "write-heavy" => {
            sets::run(ctx, sets::WRITE_HEAVY, |t| LfBst::<u64>::with_config(config(t)))
        }
        "hot-range-map" if ctx.traced => {
            let registry = Arc::new(Mutex::new(Vec::new()));
            let strips = Arc::clone(&registry);
            let make = move || map::Spanned::new(config(true), &strips);
            map::run(ctx, make, move || {
                let trees = registry.lock().expect("registry lock");
                trees.iter().filter_map(|t| t.upgrade()).map(|t| t.height()).max().unwrap_or(0)
            })
        }
        "hot-range-map" => map::run(ctx, || map::Tree::with_config(config(false)), || 0),
        _ => unreachable!("workload names are checked in main"),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> [--trace 0|1] \
         [--baseline-mops <x>] [--trace-out <file>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut ctx =
        Ctx { seed: 1, seconds: 10.0, traced: false, baseline_mops: None, trace_out: None, origin };
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        let bad = |what: &str| usage(&format!("{} {value}: {what}", args[i]));
        match args[i].as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return bad("unknown workload"),
            "--seed" => match value.parse() {
                Ok(s) => ctx.seed = s,
                Err(_) => return bad("not a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => ctx.seconds = s,
                _ => return bad("not a number of seconds in (0, 600]"),
            },
            "--trace" => match value.as_str() {
                "0" => ctx.traced = false,
                "1" => ctx.traced = true,
                _ => return bad("expected 0 or 1"),
            },
            "--baseline-mops" => match value.parse::<f64>() {
                Ok(m) if m > 0.0 => ctx.baseline_mops = Some(m),
                _ => return bad("not a positive number"),
            },
            "--trace-out" => ctx.trace_out = Some(value.into()),
            _ => return usage(&format!("unknown argument {}", args[i])),
        }
        i += 2;
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    if ctx.traced && !lfbst::stats_compiled() {
        return usage("--trace 1 needs a build with the `stats` feature");
    }
    println!(
        "perfbench: workload {workload}, seed {}, {} s, trace {}, {} clients on {} CPUs",
        ctx.seed,
        ctx.seconds,
        ctx.traced as u8,
        common::CLIENTS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = run(&workload, &ctx);
    for (name, value, unit) in report.metrics() {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
