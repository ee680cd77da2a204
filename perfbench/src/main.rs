//! The LEGO benchmark: the paths users run, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload generate|serve|search --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload sets up (several times; the median is `setup_s`),
//! measures for `--seconds`, checks every output, prints its metrics one
//! per line with unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! JSON holds the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics, measured in a separate traced run that also repeats
//! the untraced measurement to report the tracing overhead. A per-layer
//! metric of a layer the workload does not run reads 0.
//!
//! The end-to-end metrics are shared by the three workloads, each giving
//! them its own operations:
//!
//! | metric | generate | serve | search |
//! |---|---|---|---|
//! | `op1_p50_ms`, `op1_p90_ms` | one p = 8 kernel design, workload to Verilog | one request at 8,000 req/s | one mapspace cell |
//! | `op2_p50_ms` | the 256-FU point | one request at 11,000 req/s | one DSE model: two shards, snapshot round trip and merge |
//! | `rate_per_s` | p = 8 designs generated per second | highest ladder rate sustained, as achieved | design points priced per second |
//! | `setup_s` | designs, seeded inputs, reference outputs, one untimed pass | offline expected replies, server start, cache warm-up | models, hardware, design space, one untimed pass |
//!
//! The run exits non-zero when any output check fails.

mod generate;
mod openloop;
mod report;
mod search;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use report::{Checks, Host, Metrics};

/// State one workload run fills in.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub checks: Checks,
    pub metrics: Metrics,
}

/// Runs `f` `times` times and returns the median seconds it took and its
/// last result. Earlier results are dropped outside the timing.
pub fn setup_median<T>(times: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        let v = f();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    let median = stats::median(&secs).expect("at least one set-up");
    (median, last.expect("at least one set-up"))
}

const WORKLOADS: [&str; 3] = ["generate", "serve", "search"];

/// End-to-end metrics, reported with `--trace 0` by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("op1_p50_ms", "ms"),
    ("op1_p90_ms", "ms"),
    ("op2_p50_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported with `--trace 1`, by the workload that
/// runs the layer.
const PER_LAYER: [(&str, &str, &str); 65] = [
    ("generate", "frontend.build_adg_ms", "ms"),
    ("generate", "backend.lower_ms", "ms"),
    ("generate", "backend.infer_bitwidths_ms", "ms"),
    ("generate", "backend.match_delays_ms", "ms"),
    ("generate", "backend.reduction_tree_ms", "ms"),
    ("generate", "backend.rewire_broadcasts_ms", "ms"),
    ("generate", "backend.reuse_pins_ms", "ms"),
    ("generate", "backend.power_gating_ms", "ms"),
    ("generate", "rtl.emit_verilog_ms", "ms"),
    ("generate", "generate.unattributed_ms", "ms"),
    ("generate", "frontend.build_adg_ms.256fu", "ms"),
    ("generate", "backend.lower_ms.256fu", "ms"),
    ("generate", "backend.infer_bitwidths_ms.256fu", "ms"),
    ("generate", "backend.match_delays_ms.256fu", "ms"),
    ("generate", "backend.reduction_tree_ms.256fu", "ms"),
    ("generate", "backend.rewire_broadcasts_ms.256fu", "ms"),
    ("generate", "backend.reuse_pins_ms.256fu", "ms"),
    ("generate", "backend.power_gating_ms.256fu", "ms"),
    ("generate", "rtl.emit_verilog_ms.256fu", "ms"),
    ("generate", "generate.unattributed_ms.256fu", "ms"),
    ("generate", "generate.trace_overhead_ms", "ms"),
    ("generate", "backend.dag_nodes", "count"),
    ("generate", "backend.dag_edges", "count"),
    ("generate", "backend.register_bits", "bits"),
    ("generate", "backend.fifo_bits", "bits"),
    ("generate", "rtl.verilog_bytes", "bytes"),
    ("generate", "rtl.unstable_designs", "count"),
    ("serve", "serve.decode_us", "us"),
    ("serve", "serve.evaluate_us", "us"),
    ("serve", "serve.reply_write_us", "us"),
    ("serve", "eval.evaluate_us", "us"),
    ("serve", "serve.client_send_us", "us"),
    ("serve", "serve.unattributed_us", "us"),
    ("serve", "eval.offline_us", "us"),
    ("serve", "serve.light_p50_us", "us"),
    ("serve", "serve.light_p90_us", "us"),
    ("serve", "serve.light_stalled_share", "ratio"),
    ("serve", "serve.light.achieved_rps", "1/s"),
    ("serve", "serve.light.gen_lag_p99_us", "us"),
    ("serve", "serve.light_p99_us", "us"),
    ("serve", "serve.loaded.achieved_rps", "1/s"),
    ("serve", "serve.loaded.gen_lag_p99_us", "us"),
    ("serve", "serve.loaded_p99_us", "us"),
    ("serve", "serve.sent", "count"),
    ("serve", "serve.ok", "count"),
    ("serve", "serve.refused", "count"),
    ("serve", "eval.cache_hit_ratio", "ratio"),
    ("serve", "serve.trace_overhead_us", "us"),
    ("search", "explorer.shard_ms", "ms"),
    ("search", "eval.mapping_search_ms", "ms"),
    ("search", "eval.context_build_ms", "ms"),
    ("search", "eval.aggregate_ms", "ms"),
    ("search", "explorer.snapshot_encode_ms", "ms"),
    ("search", "explorer.snapshot_decode_ms", "ms"),
    ("search", "explorer.snapshot_merge_ms", "ms"),
    ("search", "mapspace.search_ms", "ms"),
    ("search", "eval.cache_miss_ratio", "ratio"),
    ("search", "pool.lane_skew", "ratio"),
    ("search", "mapspace.saturate_ms", "ms"),
    ("search", "mapspace.extract_ms", "ms"),
    ("search", "mapspace.nodes", "count"),
    ("search", "mapspace.extract_evals", "count"),
    ("search", "mapspace.dedup_ratio", "ratio"),
    ("search", "search.unattributed_ms", "ms"),
    ("search", "search.trace_overhead_ms", "ms"),
];

const USAGE: &str =
    "usage: lego-perfbench --workload generate|serve|search --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: host.nproc,
        checks: Checks::default(),
        metrics: Metrics::default(),
    };
    match args.workload.as_str() {
        "generate" => generate::run(&mut ctx),
        "serve" => serve::run(&mut ctx),
        _ => search::run(&mut ctx),
    }

    let wanted: Vec<(&str, &'static str)> = if args.trace {
        for &(owner, name, unit) in &PER_LAYER {
            if owner != args.workload {
                ctx.metrics.total(name, 0.0, unit);
            }
        }
        PER_LAYER.iter().map(|&(_, n, u)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    print!(
        "{}",
        report::render_text(&host, &args.workload, args.seed, args.trace, &ctx.metrics)
    );
    for f in ctx.checks.failures() {
        println!("# check failed: {f}");
    }
    println!(
        "# checks: {} attempted, {} failed",
        ctx.checks.attempted, ctx.checks.failed
    );
    match report::render_json(&ctx.checks, &ctx.metrics, &wanted) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if ctx.checks.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serve --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve --seconds 0")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }

    #[test]
    fn metric_lists_match_the_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{entry}");
        }
        for (owner, name, unit) in PER_LAYER {
            assert!(WORKLOADS.contains(&owner));
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{entry}");
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|p| p.1).collect();
        names.extend(END_TO_END.iter().map(|p| p.0));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are used once");
    }
}
