//! Properties of the high-level pipeline: stage composition only ever
//! removes candidates, every stage choice yields a well-formed result, and
//! the three entry points run one and the same stage chain.

use er_blocking::sorted_neighborhood::SortKey;
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::KbId;
use er_core::obs::{MetricsSnapshot, Obs};
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::resource::ResourceLimits;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_pipeline::{
    BlockingStage, CleaningStage, ClusteringStage, MatchingStage, Pipeline, PipelineBuilder,
    RecoveryOptions, StageReport,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

fn collection_from_values(values: &[String]) -> EntityCollection {
    let mut c = EntityCollection::new(ResolutionMode::Dirty);
    for v in values {
        c.push(KbId(0), vec![("v".to_string(), v.clone())]);
    }
    c
}

fn values_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,4}", 0..18)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cleaning and meta-blocking only ever shrink the candidate set.
    #[test]
    fn stages_nest(values in values_strategy()) {
        let c = collection_from_values(&values);
        let raw = Pipeline::builder()
            .cleaning(CleaningStage::None)
            .no_meta_blocking()
            .build()
            .candidates(&c);
        let cleaned = Pipeline::builder()
            .cleaning(CleaningStage::AutoPurge)
            .no_meta_blocking()
            .build()
            .candidates(&c);
        let pruned = Pipeline::builder().build().candidates(&c);
        let raw_set: BTreeSet<Pair> = raw.into_iter().collect();
        let cleaned_set: BTreeSet<Pair> = cleaned.into_iter().collect();
        let pruned_set: BTreeSet<Pair> = pruned.into_iter().collect();
        prop_assert!(cleaned_set.is_subset(&raw_set));
        prop_assert!(pruned_set.is_subset(&cleaned_set));
    }

    /// Every clustering stage partitions the collection: each entity appears
    /// in exactly one cluster.
    #[test]
    fn clustering_stages_partition(values in values_strategy()) {
        let c = collection_from_values(&values);
        for stage in [
            ClusteringStage::ConnectedComponents,
            ClusteringStage::Center,
            ClusteringStage::MergeCenter,
            ClusteringStage::UniqueMapping,
        ] {
            let res = Pipeline::builder()
                .clustering(stage)
                .matching(MatchingStage::jaccard(0.5))
                .build()
                .run(&c);
            let mut seen = BTreeSet::new();
            let mut total = 0usize;
            for cluster in &res.clusters {
                for id in cluster {
                    prop_assert!(seen.insert(*id), "{stage:?}: {id:?} in two clusters");
                    total += 1;
                }
            }
            prop_assert_eq!(total, c.len(), "{:?}: clusters must cover everything", stage);
        }
    }

    /// Matches reported by any configuration lie within its own candidates.
    #[test]
    fn matches_are_candidates(values in values_strategy()) {
        let c = collection_from_values(&values);
        let p = Pipeline::builder()
            .blocking(BlockingStage::QGrams(3))
            .cleaning(CleaningStage::None)
            .no_meta_blocking()
            .matching(MatchingStage::jaccard(0.4))
            .build();
        let cands: BTreeSet<Pair> = p.candidates(&c).into_iter().collect();
        let res = p.run(&c);
        for m in &res.matches {
            prop_assert!(cands.contains(m));
        }
    }
}

/// The counters an entry point must record identically to the others: the
/// out-of-core store and meta-blocking series.
fn stage_counters(snapshot: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("colstore.") || k.starts_with("meta_blocking."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn report_counts(r: &StageReport) -> [u64; 5] {
    [
        r.blocked_comparisons,
        r.scheduled_comparisons,
        r.matched_comparisons,
        r.shed_comparisons,
        r.skipped_comparisons,
    ]
}

/// Runs one grid cell through `run`, `run_with_recovery` and `candidates`,
/// each on its own metrics registry, and asserts they agree. Returns the
/// shared `colstore.*` / `meta_blocking.*` counters.
fn assert_entry_points_agree(
    c: &EntityCollection,
    cell: &str,
    builder: impl Fn(&Obs) -> PipelineBuilder,
) -> BTreeMap<String, u64> {
    let (run_obs, rec_obs, cand_obs) = (Obs::enabled(), Obs::enabled(), Obs::enabled());
    let plain = builder(&run_obs).build().run(c);
    let recovered = builder(&rec_obs)
        .build()
        .run_with_recovery(c, &RecoveryOptions::default())
        .unwrap();
    let candidates = builder(&cand_obs).build().candidates(c);

    let res = &recovered.resolution;
    assert_eq!(res.matches, plain.matches, "{cell}");
    assert_eq!(res.clusters, plain.clusters, "{cell}");
    assert_eq!(
        report_counts(&res.report),
        report_counts(&plain.report),
        "{cell}"
    );
    assert_eq!(recovered.scheduled.as_ref(), Some(&candidates), "{cell}");
    assert_eq!(
        candidates.len() as u64,
        plain.report.scheduled_comparisons,
        "{cell}"
    );
    let counters = stage_counters(&run_obs.snapshot());
    assert_eq!(stage_counters(&rec_obs.snapshot()), counters, "{cell}");
    assert_eq!(stage_counters(&cand_obs.snapshot()), counters, "{cell}");
    counters
}

/// `run`, `run_with_recovery` and `candidates` agree on every cell of the
/// builder grid: blocking × cleaning × meta-blocking × out-of-core ×
/// threads × limits. They agree on the resolution, every `StageReport`
/// count, the schedule, and the `colstore.*` / `meta_blocking.*` counters;
/// an out-of-core run spills meta-blocking (and token blocking) on every
/// entry point.
#[test]
fn entry_points_agree_across_the_builder_grid() {
    let ds = DirtyDataset::generate(&DirtyConfig::sized(120, NoiseModel::light(), 41));
    let dir = std::env::temp_dir().join(format!("er-entry-points-{}", std::process::id()));
    let blockings = [
        BlockingStage::Token,
        BlockingStage::AttributeClustering,
        BlockingStage::SortedNeighborhood(vec![SortKey::FlattenedValue], 6),
    ];
    let generous = ResourceLimits::none()
        .with_memory_bytes(1 << 30)
        .with_stage_timeout(Duration::from_secs(3600));
    let mut cells = 0;
    for blocking in &blockings {
        for cleaning in [CleaningStage::None, CleaningStage::AutoPurge] {
            for (meta, ooc) in [(true, false), (true, true), (false, false), (false, true)] {
                for (threads, limits) in [
                    (1, ResourceLimits::none()),
                    (1, generous),
                    (4, ResourceLimits::none()),
                    (4, generous),
                ] {
                    let cell = format!(
                        "{blocking:?} {cleaning:?} meta={meta} ooc={ooc} threads={threads} \
                         {limits:?}"
                    );
                    let counters = assert_entry_points_agree(&ds.collection, &cell, |obs| {
                        let b = Pipeline::builder()
                            .blocking(blocking.clone())
                            .cleaning(cleaning)
                            .parallelism(Parallelism::threads(threads))
                            .resource_limits(limits)
                            .segment_dir(&dir)
                            .out_of_core(ooc)
                            .observability(obs.clone());
                        if meta {
                            b
                        } else {
                            b.no_meta_blocking()
                        }
                    });
                    if ooc && meta && !matches!(blocking, BlockingStage::SortedNeighborhood(..)) {
                        let spills = 1 + u64::from(matches!(blocking, BlockingStage::Token));
                        assert!(
                            counters.get("colstore.segments_written") >= Some(&spills),
                            "{cell}: {counters:?}"
                        );
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 96);
    let _ = std::fs::remove_dir_all(&dir);
}
