//! `search`: design-space exploration and mapping search from a cold
//! cache.
//!
//! Each pass explores two shards of `DesignSpace::paper()` for ResNet50,
//! MobileNetV2 and BERT-base with `default_strategies(seed)` at 256
//! evaluations per strategy, encodes, decodes and merges the shard
//! snapshots, then runs `MapSearch` on the eight `mapspace_search` cells
//! (four zoo models × `lego_256`, `lego_icoc_1k`) against a fresh
//! session. The cost model dominates and the evaluation cache is mostly
//! written; no server and no generator code runs.

use std::time::Instant;

use lego_eval::EvalSession;
use lego_explorer::{
    default_strategies, explore_shard, DesignSpace, ExploreOptions, ParetoFrontier, Snapshot,
};
use lego_mapspace::MapSearch;
use lego_model::TechModel;
use lego_obs::{Obs, Summary};
use lego_sim::HwConfig;
use lego_workloads::{zoo, Model};

use crate::report::unattributed;
use crate::{setup_median, stats, Ctx};

const SHARDS: u32 = 2;
const BUDGET_PER_STRATEGY: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Inputs {
    dse_models: Vec<Model>,
    cells: Vec<(Model, &'static str, HwConfig)>,
    space: DesignSpace,
    tech: TechModel,
}

fn setup() -> Inputs {
    let mut cells = Vec::new();
    for model in [
        zoo::lenet(),
        zoo::mobilenet_v2(),
        zoo::resnet50(),
        zoo::bert_base(),
    ] {
        cells.push((model.clone(), "lego_256", HwConfig::lego_256()));
        cells.push((model, "lego_icoc_1k", HwConfig::lego_icoc_1k()));
    }
    Inputs {
        dse_models: vec![zoo::resnet50(), zoo::mobilenet_v2(), zoo::bert_base()],
        cells,
        space: DesignSpace::paper(),
        tech: TechModel::default(),
    }
}

/// Host seconds of one traced pass's pieces that no span covers.
#[derive(Default)]
struct SnapshotTimes {
    encode: f64,
    decode: f64,
    merge: f64,
}

/// What one pass measured.
struct Pass {
    wall_s: f64,
    /// Per model: seconds for its shards and snapshot round trip.
    dse_s: Vec<f64>,
    evaluated: u64,
    cell_ms: Vec<f64>,
    snapshots: SnapshotTimes,
    frontiers: Vec<ParetoFrontier>,
    /// Per cell: the rendered outcome, and whether the rewrite search
    /// came out no worse than enumeration.
    outcomes: Vec<(String, bool)>,
}

fn pass(inputs: &Inputs, seed: u64, nproc: usize, dse_obs: &Obs, map_obs: &Obs) -> Pass {
    let start = Instant::now();
    let opts = ExploreOptions {
        budget_per_strategy: BUDGET_PER_STRATEGY,
        threads: nproc,
        tech: inputs.tech,
        obs: dse_obs.clone(),
        ..Default::default()
    };
    let mut snapshots = SnapshotTimes::default();
    let mut dse_s = Vec::new();
    let mut evaluated = 0;
    let mut frontiers = Vec::new();
    for model in &inputs.dse_models {
        let t = Instant::now();
        let mut merged: Option<Snapshot> = None;
        for i in 0..SHARDS {
            let shard = inputs.space.shard(i, SHARDS);
            let run = explore_shard(model, &shard, &mut default_strategies(seed), &opts);
            evaluated += run.evaluated();
            let snap = run.snapshot(&model.name, seed);
            let e = Instant::now();
            let bytes = snap.encode();
            let d = Instant::now();
            let decoded = Snapshot::decode(&bytes).expect("a snapshot decodes what it encoded");
            let m = Instant::now();
            match &mut merged {
                None => merged = Some(decoded),
                Some(into) => {
                    into.absorb(&decoded);
                }
            }
            let done = Instant::now();
            snapshots.encode += (d - e).as_secs_f64();
            snapshots.decode += (m - d).as_secs_f64();
            snapshots.merge += (done - m).as_secs_f64();
        }
        dse_s.push(t.elapsed().as_secs_f64());
        frontiers.push(merged.expect("at least one shard").frontier);
    }

    let session = EvalSession::new()
        .with_threads(nproc)
        .with_obs(map_obs.clone());
    let mut cell_ms = Vec::new();
    let mut outcomes = Vec::new();
    for (model, hw_name, hw) in &inputs.cells {
        let t = Instant::now();
        let out = MapSearch::new(model, hw.clone(), inputs.tech)
            .with_obs(map_obs.clone())
            .run(&session);
        cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outcomes.push((
            format!(
                "{hw_name} {} {:e} {:e}",
                out.render(),
                out.rewrite_edp,
                out.enumerated_edp
            ),
            out.rewrite_edp <= out.enumerated_edp,
        ));
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        dse_s,
        evaluated,
        cell_ms,
        snapshots,
        frontiers,
        outcomes,
    }
}

/// Checks one pass against the first: frontiers dominance-equal,
/// mapspace outcomes identical, and the rewrite search never worse than
/// enumeration.
fn check(ctx: &mut Ctx, inputs: &Inputs, first: &Pass, p: &Pass) {
    for (i, (a, b)) in first.frontiers.iter().zip(&p.frontiers).enumerate() {
        ctx.checks.check(!b.is_empty() && a.dominance_equal(b), || {
            format!(
                "{}: merged frontier changed on repeat",
                inputs.dse_models[i].name
            )
        });
    }
    for (i, (a, b)) in first.outcomes.iter().zip(&p.outcomes).enumerate() {
        let (model, hw_name, _) = &inputs.cells[i];
        ctx.checks.check(b.1, || {
            format!("{} on {hw_name}: rewrite EDP above enumerated", model.name)
        });
        ctx.checks.check(a.0 == b.0, || {
            format!(
                "{} on {hw_name}: mapspace outcome changed on repeat",
                model.name
            )
        });
    }
}

fn span_ms(s: &Summary, name: &str) -> f64 {
    s.spans.get(name).map_or(0.0, |st| st.total_ns as f64 / 1e6)
}

pub fn run(ctx: &mut Ctx) {
    let (seed, nproc) = (ctx.seed, ctx.nproc);
    let off = Obs::disabled();
    // Set-up builds the models, hardware and design space, then runs one
    // untimed pass whose results later passes must repeat.
    let (setup_s, (inputs, first)) = setup_median(SETUPS, || {
        let inputs = setup();
        let first = pass(&inputs, seed, nproc, &off, &off);
        (inputs, first)
    });
    for (i, (_, never_lost)) in first.outcomes.iter().enumerate() {
        let (model, hw_name, _) = &inputs.cells[i];
        ctx.checks.check(*never_lost, || {
            format!("{} on {hw_name}: rewrite EDP above enumerated", model.name)
        });
    }

    // A traced run splits its seconds between untraced and traced passes.
    let budget = ctx.seconds / if ctx.trace { 2.0 } else { 1.0 };
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < budget {
        let p = pass(&inputs, seed, nproc, &off, &off);
        check(ctx, &inputs, &first, &p);
        passes.push(p);
    }

    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    let dse_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.dse_s.iter().map(|s| s * 1e3))
        .collect();
    let evaluated: u64 = passes.iter().map(|p| p.evaluated).sum();
    let dse_total_s: f64 = passes.iter().flat_map(|p| p.dse_s.iter()).sum();
    let evals_per_s = evaluated as f64 / dse_total_s;

    let m = &mut ctx.metrics;
    let n = cell_ms.len();
    let cell_p50 = stats::median(&cell_ms).unwrap_or(0.0);
    let cell_p90 = stats::percentile(&cell_ms, 0.9).unwrap_or(0.0);
    let dse_p50 = stats::median(&dse_ms).unwrap_or(0.0);
    m.sampled("op1_p50_ms", cell_p50, "ms", n);
    m.sampled("op1_p90_ms", cell_p90, "ms", n);
    m.sampled("op2_p50_ms", dse_p50, "ms", dse_ms.len());
    m.sampled("rate_per_s", evals_per_s, "1/s", passes.len());
    m.sampled("setup_s", setup_s, "s", SETUPS);
    m.sampled("dse_evals_per_s", evals_per_s, "1/s", passes.len());
    m.sampled("mapspace_cell_ms", cell_p50, "ms", n);

    if !ctx.trace {
        return;
    }
    let dse_obs = Obs::wall_clock();
    let map_obs = Obs::wall_clock();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < budget {
        let p = pass(&inputs, seed, nproc, &dse_obs, &map_obs);
        check(ctx, &inputs, &first, &p);
        traced.push(p);
    }
    let k = traced.len() as f64;
    let dse = dse_obs.summary();
    let map = map_obs.summary();
    let per_pass = |total: f64| total / k;
    let wall_ms = per_pass(traced.iter().map(|p| p.wall_s).sum::<f64>() * 1e3);
    let shard_ms = per_pass(span_ms(&dse, "explore/shard"));
    let encode_ms = per_pass(traced.iter().map(|p| p.snapshots.encode).sum::<f64>() * 1e3);
    let decode_ms = per_pass(traced.iter().map(|p| p.snapshots.decode).sum::<f64>() * 1e3);
    let merge_ms = per_pass(traced.iter().map(|p| p.snapshots.merge).sum::<f64>() * 1e3);
    let mapspace_ms = per_pass(span_ms(&map, "mapspace/search"));
    let untraced_wall_ms = passes.iter().map(|p| p.wall_s).sum::<f64>() * 1e3 / passes.len() as f64;
    let cells = k * inputs.cells.len() as f64;
    let samples = traced.len();
    let m = &mut ctx.metrics;

    m.sampled("explorer.shard_ms", shard_ms, "ms", samples);
    // Evaluation spans run on every pool lane at once, so their sums can
    // exceed the shard wall time they nest in.
    for phase in ["mapping_search", "context_build", "aggregate"] {
        let ms = per_pass(span_ms(&dse, &format!("eval/{phase}")));
        m.sampled(&format!("eval.{phase}_ms"), ms, "ms", samples);
    }
    m.sampled("explorer.snapshot_encode_ms", encode_ms, "ms", samples);
    m.sampled("explorer.snapshot_decode_ms", decode_ms, "ms", samples);
    m.sampled("explorer.snapshot_merge_ms", merge_ms, "ms", samples);
    m.sampled("mapspace.search_ms", mapspace_ms, "ms", samples);
    let (hits, misses) = (dse.counter("cache.hits"), dse.counter("cache.misses"));
    m.total(
        "eval.cache_miss_ratio",
        misses as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let lanes: Vec<f64> = dse
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("pool.lane.") && k.ends_with(".tasks"))
        .map(|(_, &v)| v as f64)
        .collect();
    let skew = match stats::mean(&lanes) {
        Some(mean) if mean > 0.0 => lanes.iter().copied().fold(0.0, f64::max) / mean,
        _ => 0.0,
    };
    m.total("pool.lane_skew", skew, "ratio");
    m.sampled(
        "mapspace.saturate_ms",
        span_ms(&map, "mapspace/saturate") / cells,
        "ms",
        samples,
    );
    m.sampled(
        "mapspace.extract_ms",
        span_ms(&map, "mapspace/extract") / cells,
        "ms",
        samples,
    );
    let nodes = map.counter("mapspace.nodes") as f64;
    let dedup = map.counter("mapspace.dedup_hits") as f64;
    m.total("mapspace.nodes", nodes / cells, "count");
    m.total(
        "mapspace.extract_evals",
        map.counter("mapspace.extract_evals") as f64 / cells,
        "count",
    );
    m.total(
        "mapspace.dedup_ratio",
        dedup / (dedup + nodes).max(1.0),
        "ratio",
    );
    m.sampled(
        "search.unattributed_ms",
        unattributed(
            wall_ms,
            &[shard_ms, encode_ms, decode_ms, merge_ms, mapspace_ms],
        ),
        "ms",
        samples,
    );
    m.total("search.trace_overhead_ms", wall_ms - untraced_wall_ms, "ms");
}
