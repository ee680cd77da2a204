//! `generate`: design points from workload to Verilog text.
//!
//! The eleven `kernel_designs(8)` (156–628 DAG nodes, single and fused
//! dataflows) plus Table IV's 256-FU point (`gemm(32,32,32)` under
//! `gemm_ij` at p = 16, ~800 nodes), each through `Lego::generate()` and
//! `Design::verilog()`. All of the time is in the front end, the back-end
//! passes with their LP solves, and RTL emission.
//!
//! Untraced, each design is timed as a user calls it. Traced, the
//! benchmark calls the public passes one at a time in `optimize`'s order
//! and times each call, then checks that the pass statistics equal what
//! `optimize` reported.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use lego_backend::passes::{
    apply_power_gating, extract_reduction_trees, infer_bitwidths, match_delays, reuse_pins,
    rewire_broadcasts,
};
use lego_backend::{lower, BackendConfig, OptimizeReport, PassStats};
use lego_core::{Design, Lego};
use lego_explorer::SplitMix64;
use lego_frontend::{build_adg, FrontendConfig};
use lego_ir::kernels::{self, dataflows};
use lego_ir::tensor::reference_execute;
use lego_ir::TensorData;
use lego_model::TechModel;
use lego_rtl::emit_verilog;

use crate::report::{unattributed, Checks};
use crate::{setup_median, stats, Ctx};

const MODULE: &str = "top";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One design point and what its outputs must equal.
struct Point {
    name: &'static str,
    lego: Lego,
    workload: lego_ir::Workload,
    dataflows: Vec<lego_ir::Dataflow>,
    /// Seeded simulation inputs and the reference loop nest's output
    /// (suite designs only; the 256-FU point is not simulated).
    sim: Option<(Vec<TensorData>, TensorData)>,
}

struct Inputs {
    /// The eleven p = 8 designs, in a seeded order.
    suite: Vec<Point>,
    big: Point,
}

fn setup(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let point = |name, workload: lego_ir::Workload, dfs: Vec<lego_ir::Dataflow>, sim| {
        let mut lego = Lego::new(workload.clone());
        for df in &dfs {
            lego = lego.dataflow(df.clone());
        }
        Point {
            name,
            lego,
            workload,
            dataflows: dfs,
            sim,
        }
    };
    let mut suite: Vec<Point> = lego_bench::kernel_designs(8)
        .into_iter()
        .map(|d| {
            let inputs: Vec<TensorData> = d
                .workload
                .inputs()
                .map(|a| {
                    let shape = d.workload.tensor_shape(&a.tensor);
                    let salt = rng.next_u64();
                    TensorData::from_fn(&shape, |k| {
                        let h = (k as u64 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        (h >> 60) as i64 - 8
                    })
                })
                .collect();
            let refs: Vec<&TensorData> = inputs.iter().collect();
            let expect = reference_execute(&d.workload, &refs);
            point(d.name, d.workload, d.dataflows, Some((inputs, expect)))
        })
        .collect();
    for i in (1..suite.len()).rev() {
        suite.swap(i, rng.below(i + 1));
    }
    let gemm = kernels::gemm(32, 32, 32);
    let df = dataflows::gemm_ij(&gemm, 16);
    let big = point("GEMM-IJ-256FU", gemm, vec![df], None);
    Inputs { suite, big }
}

/// What must repeat exactly each time a design is generated.
fn fingerprint(design: &Design, verilog: &str, tech: &TechModel) -> String {
    format!(
        "{:?}|{:?}|{}",
        design.report,
        design.cost(tech),
        verilog.len()
    )
}

fn text_hash(verilog: &str) -> u64 {
    let mut h = DefaultHasher::new();
    verilog.hash(&mut h);
    h.finish()
}

/// Per-design record of repeat checks.
#[derive(Default)]
struct Seen {
    fingerprint: Option<String>,
    report: Option<OptimizeReport>,
    texts: HashSet<u64>,
}

impl Seen {
    fn observe(&mut self, checks: &mut Checks, name: &str, fp: String, text: u64) {
        self.texts.insert(text);
        match &self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) => checks.check(*first == fp, || {
                format!("{name}: pass statistics, cost or Verilog length changed on repeat")
            }),
        }
    }
}

/// Times `Lego::generate()` + `Design::verilog()` for one point and runs
/// its untimed checks. Returns host seconds.
fn generate_once(checks: &mut Checks, p: &Point, seen: &mut Seen, tech: &TechModel) -> f64 {
    let t = Instant::now();
    let design = p.lego.generate().expect("kernel designs are valid");
    let verilog = design.verilog(MODULE);
    let dt = t.elapsed().as_secs_f64();
    black_box(&verilog);
    checks.check(design.dag.check().is_ok(), || {
        format!("{}: generated DAG fails its structural check", p.name)
    });
    let fp = fingerprint(&design, &verilog, tech);
    seen.observe(checks, p.name, fp, text_hash(&verilog));
    if seen.report.is_none() {
        seen.report = Some(design.report.clone());
    }
    dt
}

/// Layer timings of traced generations, in seconds, indexed like
/// `LAYER_NAMES`.
#[derive(Default)]
struct Layers {
    wall: f64,
    secs: [f64; 9],
}

const LAYER_NAMES: [&str; 9] = [
    "frontend.build_adg_ms",
    "backend.lower_ms",
    "backend.infer_bitwidths_ms",
    "backend.match_delays_ms",
    "backend.reduction_tree_ms",
    "backend.rewire_broadcasts_ms",
    "backend.reuse_pins_ms",
    "backend.power_gating_ms",
    "rtl.emit_verilog_ms",
];
const ADG: usize = 0;
const LOWER: usize = 1;
const BITWIDTHS: usize = 2;
const DELAYS: usize = 3;
const REDUCTION: usize = 4;
const REWIRE: usize = 5;
const REUSE: usize = 6;
const GATING: usize = 7;
const VERILOG: usize = 8;

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Generates `p` by calling the public passes one at a time, in the
/// order and with the options `optimize` uses by default, adding each
/// call's time to `l`.
fn generate_traced(
    checks: &mut Checks,
    p: &Point,
    seen: &mut Seen,
    tech: &TechModel,
    l: &mut Layers,
) {
    let start = Instant::now();
    let t = &mut l.secs;
    let adg = timed(&mut t[ADG], || {
        build_adg(&p.workload, &p.dataflows, &FrontendConfig::default())
    })
    .expect("kernel designs are valid");
    let mut dag = timed(&mut t[LOWER], || lower(&adg, &BackendConfig::default()));
    let rematch = |dag: &mut lego_backend::Dag, t: &mut [f64; 9]| {
        timed(&mut t[BITWIDTHS], || infer_bitwidths(dag));
        timed(&mut t[DELAYS], || match_delays(dag)).is_ok()
    };
    let mut scheduled = rematch(&mut dag, t);
    let baseline = PassStats::capture(&dag);
    timed(&mut t[REDUCTION], || extract_reduction_trees(&mut dag));
    scheduled &= rematch(&mut dag, t);
    let after_reduction = PassStats::capture(&dag);
    timed(&mut t[REWIRE], || rewire_broadcasts(&mut dag));
    let after_rewire = PassStats::capture(&dag);
    timed(&mut t[REUSE], || reuse_pins(&mut dag));
    scheduled &= rematch(&mut dag, t);
    let after_pin_reuse = PassStats::capture(&dag);
    timed(&mut t[GATING], || apply_power_gating(&mut dag));
    let final_stats = PassStats::capture(&dag);
    let verilog = timed(&mut t[VERILOG], || emit_verilog(&dag, MODULE));
    l.wall += start.elapsed().as_secs_f64();
    black_box(&verilog);

    checks.check(scheduled && dag.check().is_ok(), || {
        format!(
            "{}: stepwise passes left an unschedulable or broken DAG",
            p.name
        )
    });
    let report = OptimizeReport {
        baseline,
        after_reduction: Some(after_reduction),
        after_rewire: Some(after_rewire),
        after_pin_reuse: Some(after_pin_reuse),
        final_stats,
    };
    if let Some(expected) = &seen.report {
        checks.check(format!("{expected:?}") == format!("{report:?}"), || {
            format!(
                "{}: stepwise pass statistics differ from optimize()",
                p.name
            )
        });
    }
    let design = Design { adg, dag, report };
    let fp = fingerprint(&design, &verilog, tech);
    seen.observe(checks, p.name, fp, text_hash(&verilog));
}

/// Simulates every suite design under each of its dataflows against the
/// reference loop nest.
fn simulate_all(checks: &mut Checks, suite: &[Point]) {
    for p in suite {
        let Some((inputs, expect)) = &p.sim else {
            continue;
        };
        let design = p.lego.generate().expect("kernel designs are valid");
        let refs: Vec<&TensorData> = inputs.iter().collect();
        for df in 0..p.dataflows.len() {
            let out = design.simulate(df, &refs);
            checks.check(out.output == *expect, || {
                format!(
                    "{} dataflow {df}: simulation differs from the reference",
                    p.name
                )
            });
        }
    }
}

pub fn run(ctx: &mut Ctx) {
    let tech = TechModel::default();
    let seed = ctx.seed;
    let checks = &mut ctx.checks;
    // Set-up builds the inputs and reference outputs, then generates
    // every design once untimed: lazy allocation and first-touch costs
    // are paid there, and later passes must repeat its results.
    let (setup_s, (inputs, mut seen)) = setup_median(SETUPS, || {
        let inputs = setup(seed);
        let mut seen: Vec<Seen> = (0..=inputs.suite.len()).map(|_| Seen::default()).collect();
        for (p, s) in inputs.suite.iter().chain([&inputs.big]).zip(&mut seen) {
            generate_once(checks, p, s, &tech);
        }
        (inputs, seen)
    });
    let big_slot = inputs.suite.len();

    // A traced run splits its seconds between untraced and traced passes.
    let budget = ctx.seconds / if ctx.trace { 2.0 } else { 1.0 };
    let mut design_ms = Vec::new();
    let mut suite_s = Vec::new();
    let mut big_s = Vec::new();
    let start = Instant::now();
    while suite_s.len() < 2 || start.elapsed().as_secs_f64() < budget {
        let mut pass = 0.0;
        for (i, p) in inputs.suite.iter().enumerate() {
            let dt = generate_once(&mut ctx.checks, p, &mut seen[i], &tech);
            design_ms.push(dt * 1e3);
            pass += dt;
        }
        suite_s.push(pass);
        big_s.push(generate_once(
            &mut ctx.checks,
            &inputs.big,
            &mut seen[big_slot],
            &tech,
        ));
    }

    let mut traced_suite = Layers::default();
    let mut traced_big = Layers::default();
    let mut traced_passes = 0usize;
    if ctx.trace {
        let start = Instant::now();
        while traced_passes < 2 || start.elapsed().as_secs_f64() < budget {
            for (i, p) in inputs.suite.iter().enumerate() {
                generate_traced(&mut ctx.checks, p, &mut seen[i], &tech, &mut traced_suite);
            }
            let big = &inputs.big;
            generate_traced(
                &mut ctx.checks,
                big,
                &mut seen[big_slot],
                &tech,
                &mut traced_big,
            );
            traced_passes += 1;
        }
    }

    simulate_all(&mut ctx.checks, &inputs.suite);
    let unstable = seen.iter().filter(|s| s.texts.len() > 1).count();

    let m = &mut ctx.metrics;
    let n = design_ms.len();
    let p50 = stats::median(&design_ms).unwrap_or(0.0);
    let p90 = stats::percentile(&design_ms, 0.9).unwrap_or(0.0);
    let big_median_s = stats::median(&big_s).unwrap_or(0.0);
    let designs_per_s = n as f64 / suite_s.iter().sum::<f64>();
    m.sampled("op1_p50_ms", p50, "ms", n);
    m.sampled("op1_p90_ms", p90, "ms", n);
    m.sampled("op2_p50_ms", big_median_s * 1e3, "ms", big_s.len());
    m.sampled("rate_per_s", designs_per_s, "1/s", suite_s.len());
    m.sampled("setup_s", setup_s, "s", SETUPS);
    let suite_median_s = stats::median(&suite_s).unwrap_or(0.0);
    m.sampled("gen_suite_s", suite_median_s, "s", suite_s.len());
    m.sampled("gen_256fu_s", big_median_s, "s", big_s.len());
    m.total("rtl.unstable_designs", unstable as f64, "count");

    if ctx.trace {
        let ms = |secs: f64| secs * 1e3 / traced_passes as f64;
        for (suffix, l) in [("", &traced_suite), (".256fu", &traced_big)] {
            let parts = l.secs.map(ms);
            for (name, v) in LAYER_NAMES.iter().zip(parts) {
                m.sampled(&format!("{name}{suffix}"), v, "ms", traced_passes);
            }
            let name = format!("generate.unattributed_ms{suffix}");
            m.sampled(&name, unattributed(ms(l.wall), &parts), "ms", traced_passes);
        }
        let traced_ms = ms(traced_suite.wall + traced_big.wall);
        let untraced_ms = suite_s.iter().chain(&big_s).sum::<f64>() * 1e3 / suite_s.len() as f64;
        m.total("generate.trace_overhead_ms", traced_ms - untraced_ms, "ms");
        let (mut nodes, mut edges, mut regs, mut fifo, mut bytes) = (0, 0, 0, 0, 0);
        for p in &inputs.suite {
            let d = p.lego.generate().expect("kernel designs are valid");
            nodes += d.dag.nodes.len();
            edges += d.dag.edges.len();
            regs += d.report.final_stats.register_bits;
            fifo += d.report.final_stats.fifo_bits;
            bytes += d.verilog(MODULE).len();
        }
        m.total("backend.dag_nodes", nodes as f64, "count");
        m.total("backend.dag_edges", edges as f64, "count");
        m.total("backend.register_bits", regs as f64, "bits");
        m.total("backend.fifo_bits", fifo as f64, "bits");
        m.total("rtl.verilog_bytes", bytes as f64, "bytes");
    }
}
