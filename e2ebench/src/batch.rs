//! The batch workloads: the timed path `er resolve` takes, and the layered
//! composition that times each layer through its public function.

use crate::measure::{digest, peak_rss_mib, reset_peak_rss, LayerClock, Metrics};
use crate::workload::{read_collection, read_truth, Inputs, Workload};
use er_blocking::{cleaning, TokenBlocking};
use er_core::collection::EntityCollection;
use er_core::ground_truth::GroundTruth;
use er_core::matching::{par_decide_candidates, ThresholdMatcher};
use er_core::metrics::MatchQuality;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::similarity::SetMeasure;
use er_metablocking::{BlockingGraph, PruningScheme, WeightingScheme};
use er_pipeline::{RecoveryEvent, RecoveryOptions};
use std::path::Path;
use std::time::Instant;

/// Layers whose times add up, with `pipeline.unattributed_s`, to the traced
/// wall time. `evaluate.s` runs after the resolution, outside the wall.
pub const WALL_LAYERS: [&str; 9] = [
    "io.read_s",
    "blocking.build_s",
    "cleaning.purge_s",
    "blocking.distinct_pairs_s",
    "metablocking.graph_build_s",
    "metablocking.prune_s",
    "matching.decide_s",
    "clustering.s",
    "recovery.checkpoint_s",
];

/// The share of declared match pairs that are true, before closure: the
/// matcher's own precision, which a single giant closure component does
/// not swing from seed to seed.
pub fn pair_precision(matches: &[Pair], truth: &GroundTruth) -> f64 {
    truth.true_positives(matches) as f64 / matches.len().max(1) as f64
}

/// One timed resolution: parse the collection file, then
/// `Pipeline::run_with_recovery` — the path `er resolve` takes. Returns the
/// end-to-end metrics and the output digest. A degraded outcome, or a
/// `lod-purged` run that did not write its three checkpoints, is an error.
pub fn timed(workload: Workload, inputs: &Inputs) -> Result<(Metrics, u64), String> {
    let truth = read_truth(&inputs.truth(0))?;
    let pipeline = workload.pipeline(Obs::disabled());
    let checkpoints = inputs.scratch("checkpoints");
    let _ = std::fs::remove_dir_all(&checkpoints);
    let opts = workload.recovery(&checkpoints);
    reset_peak_rss();
    let start = Instant::now();
    let collection = read_collection(&inputs.collection(0))?;
    let resolve_start = Instant::now();
    let outcome = pipeline.run_with_recovery(&collection, &opts);
    let resolve_s = resolve_start.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    let peak = peak_rss_mib()?;
    let _ = std::fs::remove_dir_all(&checkpoints);
    let outcome = outcome.map_err(|e| e.to_string())?;
    if outcome.degraded() {
        return Err(format!("degraded run: {:?}", outcome.events));
    }
    let saved = outcome
        .events
        .iter()
        .filter(|e| matches!(e, RecoveryEvent::CheckpointSaved { .. }))
        .count();
    let expected = if opts.checkpoint_dir.is_some() { 3 } else { 0 };
    if saved != expected {
        return Err(format!(
            "{saved} checkpoint(s) written, expected {expected}"
        ));
    }
    let res = outcome.resolution;
    let quality = MatchQuality::measure(collection.len(), &res.matches, &truth);
    let mut m = Metrics::new();
    m.insert("wall_s".into(), wall_s);
    m.insert("throughput_dps".into(), collection.len() as f64 / wall_s);
    m.insert("peak_rss_mib".into(), peak);
    m.insert(
        "pair_precision".into(),
        pair_precision(&res.matches, &truth),
    );
    m.insert("recall".into(), quality.recall());
    // Every description of a batch arrives when the run starts and is
    // resolved when it returns, so each one waits the whole wall time.
    m.insert("integrate_p50_ms".into(), wall_s * 1e3);
    m.insert("integrate_p99_ms".into(), wall_s * 1e3);
    // The call that turns every arrived description into final clusters.
    m.insert("checkpoint_s".into(), resolve_s);
    Ok((m, digest(&res.matches, &res.clusters)))
}

/// The layered composition of the workload's pipeline: token build →
/// optional purge → graph build → prune → decide → closure, each layer
/// called through its public function. `run_with_recovery` runs the same
/// chain, so the outputs must be equal.
///
/// `traced` times the layers and also runs what `run_with_recovery` spends
/// time on besides the chain: the distinct blocked pairs, whose count it
/// reports, and the checkpoint writes. Returns the per-layer metrics (empty
/// unless traced) and the output digest.
pub fn layered(
    workload: Workload,
    inputs: &Inputs,
    traced: bool,
) -> Result<(Metrics, u64), String> {
    let truth = read_truth(&inputs.truth(0))?;
    let par = workload.parallelism();
    let obs = Obs::enabled();
    let mut clock = LayerClock::default();
    let mut m = Metrics::new();
    let start = Instant::now();

    let collection = clock.time("io.read_s", || read_collection(&inputs.collection(0)))?;
    let n = collection.len();
    let blocks = clock.time("blocking.build_s", || {
        TokenBlocking::new().par_build_obs(&collection, par, &obs)
    });
    m.insert("blocking.blocks".into(), blocks.len() as f64);
    m.insert(
        "blocking.interner_symbols".into(),
        obs.counter("blocking.interner_symbols").value() as f64,
    );
    let blocks = if workload.purges() {
        let purged = clock.time("cleaning.purge_s", || {
            cleaning::auto_purge(&blocks, &collection)
        });
        m.insert("cleaning.blocks_kept".into(), purged.len() as f64);
        purged
    } else {
        blocks
    };
    if traced {
        let blocked = clock.time("blocking.distinct_pairs_s", || {
            blocks.distinct_pairs(&collection)
        });
        m.insert("blocking.distinct_pairs".into(), blocked.len() as f64);
    }

    let graph = clock.time("metablocking.graph_build_s", || {
        BlockingGraph::par_build(&collection, &blocks, par)
    });
    drop(blocks);
    let edges = graph.n_edges();
    m.insert("metablocking.edges".into(), edges as f64);
    m.insert(
        "metablocking.edge_sort_bytes".into(),
        graph.edge_sort_bytes() as f64,
    );
    let kept = clock.time("metablocking.prune_s", || {
        PruningScheme::Wnp.par_prune(&graph, WeightingScheme::Arcs, par)
    });
    drop(graph);
    m.insert("metablocking.kept".into(), kept.len() as f64);
    m.insert("metablocking.kept_ratio".into(), ratio(kept.len(), edges));

    let matcher = ThresholdMatcher::new(SetMeasure::Jaccard, 0.4);
    let mut matches: Vec<Pair> = clock.time("matching.decide_s", || {
        par_decide_candidates(&collection, &matcher, &kept, par)
            .into_iter()
            .filter_map(|(p, d)| d.is_match.then_some(p))
            .collect()
    });
    m.insert("matching.comparisons".into(), kept.len() as f64);
    m.insert("matching.matches".into(), matches.len() as f64);
    m.insert(
        "matching.match_ratio".into(),
        ratio(matches.len(), kept.len()),
    );
    m.insert(
        "matching.ns_per_comparison".into(),
        clock.seconds("matching.decide_s") * 1e9 / kept.len().max(1) as f64,
    );
    drop(kept);

    let clusters = clock.time("clustering.s", || {
        matches.sort();
        er_core::clusters::components_from_matches(n, &matches)
    });
    let mut wall_s = start.elapsed().as_secs_f64();
    if !traced {
        return Ok((Metrics::new(), digest(&matches, &clusters)));
    }
    m.insert("clustering.clusters".into(), clusters.len() as f64);
    m.insert(
        "clustering.largest_cluster".into(),
        clusters.iter().map(Vec::len).max().unwrap_or(0) as f64,
    );
    let quality = clock.time("evaluate.s", || MatchQuality::measure(n, &matches, &truth));
    m.insert("evaluate.precision".into(), quality.precision());
    m.insert(
        "evaluate.pair_precision".into(),
        pair_precision(&matches, &truth),
    );
    m.insert("evaluate.recall".into(), quality.recall());

    if workload.recovery(Path::new("")).checkpoint_dir.is_some() {
        // The checkpoint writes happen inside `run_with_recovery`, which is
        // timed on its own, so they join the traced wall here.
        let (ckpt_s, ckpt_bytes) = checkpoint_cost(workload, &collection, inputs)?;
        m.insert("recovery.checkpoint_s".into(), ckpt_s);
        m.insert("recovery.checkpoint_bytes".into(), ckpt_bytes as f64);
        wall_s += ckpt_s;
    }
    for layer in WALL_LAYERS.iter().chain(&["evaluate.s"]) {
        if !m.contains_key(*layer) {
            m.insert(layer.to_string(), clock.seconds(layer));
        }
    }
    let attributed: f64 = WALL_LAYERS.iter().map(|l| m[*l]).sum();
    m.insert("pipeline.wall_s".into(), wall_s);
    m.insert("pipeline.unattributed_s".into(), wall_s - attributed);
    Ok((m, digest(&matches, &clusters)))
}

fn ratio(part: usize, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Runs per side when measuring the checkpoint cost.
const CHECKPOINT_PAIRS: usize = 2;

/// The cost of the checkpoint writes: `run_with_recovery` with the
/// checkpoint directory minus without, alternating, median over the pairs.
/// Each run's time outside the pipeline's own stage spans is compared,
/// since the writes happen between stages; leaving the stages out keeps
/// their run-to-run noise out of a difference that is a few percent of a
/// run. Returns the seconds and the bytes written.
fn checkpoint_cost(
    workload: Workload,
    collection: &EntityCollection,
    inputs: &Inputs,
) -> Result<(f64, u64), String> {
    let dir = inputs.scratch("traced-checkpoints");
    let with = workload.recovery(&dir);
    let without = RecoveryOptions {
        checkpoint_dir: None,
        ..with.clone()
    };
    let mut extra = Vec::new();
    let mut bytes = 0;
    for _ in 0..CHECKPOINT_PAIRS {
        let _ = std::fs::remove_dir_all(&dir);
        let plain = between_stages_s(workload, collection, &without)?;
        let checkpointed = between_stages_s(workload, collection, &with)?;
        extra.push(checkpointed - plain);
        bytes = dir_bytes(&dir)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((crate::measure::median(&extra), bytes))
}

/// Seconds of one `run_with_recovery` spent outside its stage spans.
fn between_stages_s(
    workload: Workload,
    collection: &EntityCollection,
    opts: &RecoveryOptions,
) -> Result<f64, String> {
    let obs = Obs::enabled();
    workload
        .pipeline(obs.clone())
        .run_with_recovery(collection, opts)
        .map_err(|e| e.to_string())?;
    let snapshot = obs.snapshot();
    let micros = |name: &str| snapshot.span(name).map_or(0, |s| s.total_micros) as f64;
    let stages: f64 = [
        "pipeline.blocking",
        "pipeline.meta_blocking",
        "pipeline.matching",
        "pipeline.clustering",
    ]
    .iter()
    .map(|s| micros(s))
    .sum();
    Ok((micros("pipeline.run") - stages) / 1e6)
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        total += meta.len();
    }
    Ok(total)
}
