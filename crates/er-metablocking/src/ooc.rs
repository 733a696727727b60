//! Out-of-core blocking-graph construction: external-sort aggregation over
//! segment files.
//!
//! The compact in-memory build ([`BlockingGraph::par_build`]) concatenates
//! every per-chunk edge partial into one flat `(Pair, EdgeInfo)` vector,
//! stable-sorts it by pair and merges runs left-to-right — the flat vector
//! (`edge_sort_bytes`) is the dominant allocation of the meta-blocking
//! stage. This module spills the partials as **pair-sorted edge runs** in
//! [`er_core::colstore`] segments and performs the run merge over a k-way
//! streaming merge of those runs instead, so the full contribution vector
//! never exists in memory.
//!
//! **Bit-identity, including the non-associative `f64` ARCS sums.** Spilled
//! runs are *not* pre-accumulated: each run holds raw contributions,
//! stable-sorted by pair, so contributions of an equal pair keep their
//! arrival (chunk) order inside the run. Runs partition the arrival
//! sequence into contiguous windows, so the k-way merge ordered by
//! `(pair, run index)` replays, for every pair, its contributions in exactly
//! the global arrival order — the same permutation the in-memory stable
//! sort produces — and the left-to-right accumulation of
//! [`merge_runs`](crate::graph) then performs the identical `f64` addition
//! sequence. Weights travel through disk as raw bits
//! ([`f64::to_bits`]/[`f64::from_bits`]), never reformatted.

use crate::graph::{merge_runs, BlockingGraph, EdgeInfo};
use crate::pruning::PruningScheme;
use crate::weights::WeightingScheme;
use er_blocking::block::{Block, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::colstore::{EdgeRecord, OocConfig, Segment, SegmentError, SegmentWriter};
use er_core::entity::EntityId;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::{par_map_chunks, Parallelism};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::path::PathBuf;

/// Blocks per aggregation chunk — **must** equal the in-memory path's
/// `GRAPH_CHUNK_BLOCKS` so per-chunk partials cover the same block windows.
const CHUNK_BLOCKS: usize = 32;

/// Blocks handed to the thread pool per batch; a multiple of
/// [`CHUNK_BLOCKS`] so batch boundaries never move a chunk boundary.
const BATCH_BLOCKS: usize = 64 * CHUNK_BLOCKS;

/// Floor of the adaptive run-buffer shrink.
const MIN_RUN_ENTRIES: usize = 64;

/// Merge steps between watchdog checks.
const MERGE_CHECK_EVERY: u64 = 4096;

fn to_record(p: Pair, info: EdgeInfo) -> EdgeRecord {
    EdgeRecord {
        a: p.first().0,
        b: p.second().0,
        count: info.common_blocks,
        weight_bits: info.arcs.to_bits(),
    }
}

fn from_record(r: EdgeRecord) -> (Pair, EdgeInfo) {
    (
        Pair::new(EntityId(r.a), EntityId(r.b)),
        EdgeInfo {
            common_blocks: r.count,
            arcs: f64::from_bits(r.weight_bits),
        },
    )
}

/// Spill state of the edge-contribution stream.
struct EdgeSpill<'a> {
    cfg: &'a OocConfig,
    buf: Vec<(Pair, EdgeInfo)>,
    reserved: u64,
    run_entries: usize,
    runs: Vec<PathBuf>,
    /// Records written across all runs (the spilled counterpart of the
    /// in-memory `flat.len()`).
    spilled_records: u64,
}

impl<'a> EdgeSpill<'a> {
    fn new(cfg: &'a OocConfig) -> Result<EdgeSpill<'a>, SegmentError> {
        let mut run_entries = cfg.run_entries.max(MIN_RUN_ENTRIES);
        let reserved = loop {
            let bytes = (run_entries * std::mem::size_of::<(Pair, EdgeInfo)>()) as u64;
            match cfg.budget.try_reserve("metablocking-ooc", bytes) {
                Ok(()) => break bytes,
                Err(e) => {
                    if run_entries == MIN_RUN_ENTRIES {
                        return Err(SegmentError::Resource(e));
                    }
                    run_entries = (run_entries / 2).max(MIN_RUN_ENTRIES);
                }
            }
        };
        Ok(EdgeSpill {
            cfg,
            buf: Vec::with_capacity(run_entries),
            reserved,
            run_entries,
            runs: Vec::new(),
            spilled_records: 0,
        })
    }

    /// Stable-sorts the buffered contributions by pair (arrival order kept
    /// within equal pairs — no accumulation happens before the merge) and
    /// spills them as one segment.
    fn spill(&mut self) -> Result<(), SegmentError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.cfg.watchdog.check("metablocking-ooc")?;
        self.buf.sort_by_key(|&(p, _)| p);
        let records: Vec<EdgeRecord> = self.buf.iter().map(|&(p, i)| to_record(p, i)).collect();
        let path = self
            .cfg
            .segment_dir
            .join(format!("edge-run-{:05}.seg", self.runs.len()));
        let mut w = SegmentWriter::create(&path, self.cfg.fingerprint)?;
        w.edge_run(&records)?;
        let bytes = w.finish()?;
        self.cfg.metrics.segment_written(bytes);
        self.spilled_records += records.len() as u64;
        self.runs.push(path);
        self.buf.clear();
        Ok(())
    }

    fn push_all(
        &mut self,
        entries: impl IntoIterator<Item = (Pair, EdgeInfo)>,
    ) -> Result<(), SegmentError> {
        for entry in entries {
            if self.buf.len() >= self.run_entries {
                self.spill()?;
            }
            self.buf.push(entry);
        }
        Ok(())
    }

    fn release(&mut self) {
        self.cfg.budget.release(self.reserved);
        self.reserved = 0;
    }
}

impl Drop for EdgeSpill<'_> {
    fn drop(&mut self) {
        self.release();
        for path in &self.runs {
            let _ = fs::remove_file(path);
        }
    }
}

impl BlockingGraph {
    /// Out-of-core [`par_build`](BlockingGraph::par_build): bit-identical
    /// graph — ARCS bits included — with the edge-contribution vector
    /// spilled to sorted segment runs under `cfg.segment_dir` instead of
    /// held in memory. Spill files are removed before returning; typed
    /// errors, never partial output.
    pub fn par_build_ooc(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        par: Parallelism,
        cfg: &OocConfig,
    ) -> Result<BlockingGraph, SegmentError> {
        fs::create_dir_all(&cfg.segment_dir).map_err(|e| SegmentError::Io {
            path: cfg.segment_dir.clone(),
            offset: 0,
            reason: e.to_string(),
        })?;
        let n = collection.len();
        let mut spill = EdgeSpill::new(cfg)?;
        let mut entity_block_counts = vec![0u32; n];
        let mut raw_entries: u64 = 0;
        // Identical chunking to the in-memory build: fixed 32-block chunks,
        // partials consumed in chunk order. Batching bounds how many
        // partials exist at once without moving any chunk boundary.
        for batch in blocks.blocks().chunks(BATCH_BLOCKS) {
            cfg.watchdog.check("metablocking-ooc")?;
            let partials = par_map_chunks(par, batch, CHUNK_BLOCKS, |chunk: &[Block]| {
                let mut contribs: Vec<(Pair, EdgeInfo)> = Vec::new();
                let mut counted: Vec<u32> = Vec::new();
                for b in chunk {
                    let card = b.comparisons(collection);
                    counted.extend(b.entities().iter().map(|e| e.index() as u32));
                    if card == 0 {
                        continue;
                    }
                    let w = 1.0 / card as f64;
                    contribs.extend(b.pairs(collection).map(|p| {
                        (
                            p,
                            EdgeInfo {
                                common_blocks: 1,
                                arcs: w,
                            },
                        )
                    }));
                }
                let raw = contribs.len() as u64;
                // Stable: equal pairs keep block order within the chunk.
                contribs.sort_by_key(|&(p, _)| p);
                let mut block_counts: Vec<(u32, u32)> = Vec::new();
                counted.sort_unstable();
                for idx in counted {
                    match block_counts.last_mut() {
                        Some((last, c)) if *last == idx => *c += 1,
                        _ => block_counts.push((idx, 1)),
                    }
                }
                (merge_runs(contribs), block_counts, raw)
            });
            for (edges, block_counts, raw) in partials {
                raw_entries += raw;
                for (idx, count) in block_counts {
                    entity_block_counts[idx as usize] += count;
                }
                spill.push_all(edges)?;
            }
        }
        spill.spill()?;
        spill.release();
        let entry = std::mem::size_of::<(Pair, EdgeInfo)>() as u64;
        let edge_sort_bytes = (raw_entries + spill.spilled_records) * entry;
        let edges = merge_edge_runs(&spill)?;
        let mut degrees = vec![0u32; n];
        for &(p, _) in &edges {
            degrees[p.first().index()] += 1;
            degrees[p.second().index()] += 1;
        }
        Ok(BlockingGraph {
            edges,
            entity_block_counts,
            degrees,
            total_blocks: blocks.len() as u64,
            total_assignments: blocks.assignments(),
            n_entities: n,
            edge_sort_bytes,
        })
    }
}

/// K-way merges the spilled edge runs ordered by `(pair, run index)` and
/// accumulates equal pairs left-to-right — the streaming equivalent of the
/// in-memory stable sort + [`merge_runs`] over the concatenated partials.
fn merge_edge_runs(spill: &EdgeSpill<'_>) -> Result<Vec<(Pair, EdgeInfo)>, SegmentError> {
    let cfg = spill.cfg;
    if spill.runs.is_empty() {
        return Ok(Vec::new());
    }
    cfg.metrics.runs_merged(spill.runs.len() as u64);
    let segments: Vec<Segment> = spill
        .runs
        .iter()
        .map(|p| Segment::open(p, cfg.segment_options()))
        .collect::<Result<_, _>>()?;
    let mut cursors = Vec::with_capacity(segments.len());
    for seg in &segments {
        cursors.push(seg.edges(0)?);
    }
    let mut heads: Vec<Option<(Pair, EdgeInfo)>> = Vec::with_capacity(cursors.len());
    // Min-heap on (pair, run index): runs are contiguous arrival windows,
    // so draining equal pairs in run order replays global arrival order —
    // the f64 accumulation sequence of the in-memory path.
    let mut heap: BinaryHeap<Reverse<(Pair, usize)>> = BinaryHeap::new();
    for (i, c) in cursors.iter_mut().enumerate() {
        let head = c.next()?.map(from_record);
        if let Some((p, _)) = head {
            heap.push(Reverse((p, i)));
        }
        heads.push(head);
    }
    let mut out: Vec<(Pair, EdgeInfo)> = Vec::new();
    let mut steps: u64 = 0;
    while let Some(Reverse((_, run))) = heap.pop() {
        steps += 1;
        if steps.is_multiple_of(MERGE_CHECK_EVERY) {
            cfg.watchdog.check("metablocking-ooc")?;
        }
        let (p, info) = heads[run].take().expect("heap entry has a head");
        let next = cursors[run].next()?.map(from_record);
        if let Some((np, _)) = next {
            heap.push(Reverse((np, run)));
        }
        heads[run] = next;
        match out.last_mut() {
            Some((last, acc)) if *last == p => {
                acc.common_blocks += info.common_blocks;
                acc.arcs += info.arcs;
            }
            _ => out.push((p, info)),
        }
    }
    Ok(out)
}

/// Out-of-core [`par_meta_block_obs`](crate::pipeline::par_meta_block_obs):
/// the graph is built through [`BlockingGraph::par_build_ooc`], then pruned
/// and recorded by the same [`par_prune_obs`](crate::pipeline::par_prune_obs)
/// as the in-memory pipeline.
pub fn par_meta_block_ooc_obs(
    collection: &EntityCollection,
    blocks: &BlockCollection,
    weighting: WeightingScheme,
    pruning: PruningScheme,
    par: Parallelism,
    obs: &Obs,
    cfg: &OocConfig,
) -> Result<Vec<Pair>, SegmentError> {
    let graph = BlockingGraph::par_build_ooc(collection, blocks, par, cfg)?;
    Ok(crate::pipeline::par_prune_obs(
        &graph, weighting, pruning, par, obs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::TokenBlocking;
    use er_core::collection::ResolutionMode;
    use er_core::colstore::StoreMetrics;
    use er_core::entity::{EntityBuilder, KbId};
    use er_core::resource::{MemoryBudget, Watchdog};
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "er-ooc-metablocking-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn fixture() -> (EntityCollection, BlockCollection) {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for i in 0..120u32 {
            c.push_entity(
                KbId(0),
                EntityBuilder::new().attr("n", format!("tok{} shared{} noise{}", i % 11, i % 5, i)),
            );
        }
        let blocks = TokenBlocking::new().build(&c);
        (c, blocks)
    }

    #[test]
    fn ooc_graph_is_bit_identical_across_run_sizes_and_threads() {
        let (c, blocks) = fixture();
        for threads in [1, 4] {
            let par = Parallelism::threads(threads);
            let oracle = BlockingGraph::par_build(&c, &blocks, par);
            for run_entries in [64, 100_000] {
                let dir = tmp_dir("equiv");
                let cfg = OocConfig::new(&dir).with_run_entries(run_entries);
                let got = BlockingGraph::par_build_ooc(&c, &blocks, par, &cfg).unwrap();
                assert_eq!(got, oracle, "threads {threads} run {run_entries}");
                for ((p1, i1), (p2, i2)) in got.edges().zip(oracle.edges()) {
                    assert_eq!(p1, p2);
                    assert_eq!(i1.arcs.to_bits(), i2.arcs.to_bits(), "ARCS bits at {p1:?}");
                }
                assert!(
                    std::fs::read_dir(&dir).unwrap().next().is_none(),
                    "spill files removed"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn ooc_meta_block_matches_in_memory_pipeline() {
        let (c, blocks) = fixture();
        let par = Parallelism::threads(2);
        let oracle = crate::pipeline::par_meta_block(
            &c,
            &blocks,
            WeightingScheme::Arcs,
            PruningScheme::Wep,
            par,
        );
        let dir = tmp_dir("pipeline");
        let cfg = OocConfig::new(&dir).with_run_entries(128);
        let obs = Obs::enabled();
        let got = par_meta_block_ooc_obs(
            &c,
            &blocks,
            WeightingScheme::Arcs,
            PruningScheme::Wep,
            par,
            &obs,
            &cfg,
        )
        .unwrap();
        assert_eq!(got, oracle);
        let snap = obs.snapshot();
        assert!(snap.counter("meta_blocking.edges_weighted").unwrap() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ooc_build_drains_budget_and_records_metrics() {
        let (c, blocks) = fixture();
        let obs = Obs::enabled();
        let metrics = StoreMetrics::new(obs.clone());
        let budget = MemoryBudget::bytes(1 << 20);
        let dir = tmp_dir("budget");
        let cfg = OocConfig::new(&dir)
            .with_run_entries(128)
            .with_budget(budget.clone())
            .with_metrics(metrics.clone());
        let g = BlockingGraph::par_build_ooc(&c, &blocks, Parallelism::serial(), &cfg).unwrap();
        assert!(g.n_edges() > 0);
        assert!(g.edge_sort_bytes() > 0);
        let snap = obs.snapshot();
        let written = snap.counter("colstore.segments_written").unwrap();
        assert!(written > 1, "multiple edge runs spilled: {written}");
        assert_eq!(snap.counter("colstore.runs_merged"), Some(written));
        assert_eq!(budget.used(), 0, "all reservations drained");
        assert_eq!(metrics.resident_bytes(), 0, "all pages released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_watchdog_is_a_typed_error_not_partial_output() {
        let (c, blocks) = fixture();
        let dir = tmp_dir("watchdog");
        let cfg = OocConfig::new(&dir).with_watchdog(Watchdog::timeout(Duration::ZERO));
        let err =
            BlockingGraph::par_build_ooc(&c, &blocks, Parallelism::serial(), &cfg).unwrap_err();
        assert!(matches!(err, SegmentError::Resource(_)), "{err:?}");
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "spill files removed on error"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_blocks_build_an_empty_graph() {
        let c = EntityCollection::new(ResolutionMode::Dirty);
        let dir = tmp_dir("empty");
        let g = BlockingGraph::par_build_ooc(
            &c,
            &BlockCollection::default(),
            Parallelism::serial(),
            &OocConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(g.n_edges(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
