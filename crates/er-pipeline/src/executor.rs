//! The stage executor: the one Fig. 1 chain — blocking → meta-blocking
//! (scheduling) → matching → clustering — behind [`Pipeline::run`],
//! [`Pipeline::run_with_recovery`] and [`Pipeline::candidates`].
//!
//! Every stage runs through one wrapper, [`Executor::stage`]: it opens the
//! stage's span, arms a fresh watchdog per attempt, runs the stage under the
//! retry policy and takes one clock reading that feeds both the span and
//! the [`StageReport`] field. [`Executor::checkpointed`] adds the stage's
//! checkpoint around it: on resume a valid checkpoint stands in for the
//! stage and everything upstream of it — the chain is pulled from the
//! matching end, so the deepest checkpoint wins — and otherwise the stage
//! runs and its complete output is saved once its span has closed.

use crate::recovery::{
    fingerprint, Checkpoint, CheckpointStore, Matched, Schedule, STAGE_BLOCKING, STAGE_MATCHING,
    STAGE_META_BLOCKING,
};
use crate::{
    BlockingStage, Pipeline, PipelineError, RecoveryEvent, RecoveryOptions, RecoveryOutcome,
    Resolution, StageReport,
};
use er_blocking::block::BlockCollection;
use er_blocking::governance::GovernedBlocks;
use er_blocking::sorted_neighborhood::MultiPassSortedNeighborhood;
use er_core::collection::EntityCollection;
use er_core::obs::{Event, Obs};
use er_core::pair::Pair;
use er_core::resource::{MemoryBudget, Watchdog};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

/// One run of the chain: the configuration, the recovery layers and the
/// accounting gathered on the way.
pub(crate) struct Executor<'a> {
    pipeline: &'a Pipeline,
    collection: &'a EntityCollection,
    opts: &'a RecoveryOptions,
    budget: MemoryBudget,
    store: Option<CheckpointStore>,
    events: Vec<RecoveryEvent>,
    report: StageReport,
    resumed_from: Option<&'static str>,
}

impl<'a> Executor<'a> {
    pub(crate) fn new(
        pipeline: &'a Pipeline,
        collection: &'a EntityCollection,
        opts: &'a RecoveryOptions,
    ) -> Self {
        Executor {
            pipeline,
            collection,
            opts,
            budget: pipeline.limits.budget(),
            store: opts
                .checkpoint_dir
                .as_ref()
                .map(|dir| CheckpointStore::new(dir.clone(), fingerprint(pipeline, collection))),
            events: Vec::new(),
            report: StageReport::default(),
            resumed_from: None,
        }
    }

    /// The whole chain, through clustering and the run counters.
    pub(crate) fn resolve(mut self) -> Result<RecoveryOutcome, PipelineError> {
        let (p, c) = (self.pipeline, self.collection);
        let run_span = p.obs().span("pipeline.run");
        // Pre-register the retry counter so a fault-free snapshot reports an
        // explicit 0 instead of a missing key — the CI checker asserts on it.
        p.obs().counter("recovery.stage_retries");
        let mut scheduled = None;
        let matched = self.checkpointed(|ex| {
            let schedule = ex.checkpointed(Self::schedule)?;
            let matched = ex.matching(&schedule.pairs)?;
            scheduled = Some(schedule.pairs);
            Ok(matched)
        })?;
        // Clustering is cheap and always re-run, even on a matched resume.
        let clustering_span = p.obs().span("pipeline.clustering");
        let (matches, clusters) = p.cluster(c, matched.scored);
        clustering_span.finish();
        p.record_run_counters(&self.report, &matches, &clusters);
        run_span.finish();
        Ok(RecoveryOutcome {
            resolution: Resolution {
                matches,
                clusters,
                report: self.report,
            },
            events: self.events,
            resumed_from: self.resumed_from,
            scheduled,
        })
    }

    /// Blocking, then meta-blocking for block-producing methods: the
    /// scheduled comparisons. [`Pipeline::candidates`] stops here.
    pub(crate) fn schedule(&mut self) -> Result<Schedule, PipelineError> {
        let (p, c) = (self.pipeline, self.collection);
        let pairs = if let BlockingStage::SortedNeighborhood(keys, window) = &p.blocking {
            // Pair-producing method: blocking directly yields the schedule.
            let (pairs, elapsed) = self.stage(STAGE_BLOCKING, |_| {
                Ok(MultiPassSortedNeighborhood::new(keys.clone(), *window).candidate_pairs(c))
            })?;
            self.report.blocking_time = elapsed;
            self.report.blocked_comparisons = pairs.len() as u64;
            pairs
        } else {
            let governed = self.checkpointed(Self::block)?;
            self.meta_block(&governed.blocks)
        };
        Ok(Schedule {
            pairs,
            blocked: self.report.blocked_comparisons,
        })
    }

    /// Blocking and cleaning: the block index, charged against the budget.
    fn block(&mut self) -> Result<GovernedBlocks, PipelineError> {
        let (p, c, budget) = (self.pipeline, self.collection, self.budget.clone());
        let (governed, elapsed) = self.stage(STAGE_BLOCKING, |_| p.build_blocks(c, &budget))?;
        self.report.blocking_time = elapsed;
        self.report.shed_comparisons = governed.shed_comparisons;
        if governed.degraded() {
            self.events.push(RecoveryEvent::BlocksShedUnderPressure {
                shed_blocks: governed.shed_blocks,
                shed_comparisons: governed.shed_comparisons,
            });
        }
        Ok(governed)
    }

    /// Meta-blocking over `blocks` — never skipped under pressure: pruning
    /// *reduces* downstream work, so running it is the cheapest path to the
    /// deadline. Without a meta-blocking stage the distinct blocked
    /// comparisons are the schedule. A meta-blocking stage that fails even
    /// after retries degrades to them, loudly: recall is preserved because
    /// they are a superset of anything meta-blocking would schedule. Only
    /// these two cases enumerate the blocked pairs; a successful stage
    /// counts them as the graph's edges.
    fn meta_block(&mut self, blocks: &BlockCollection) -> Vec<Pair> {
        let (p, c, budget) = (self.pipeline, self.collection, self.budget.clone());
        let failure = match p.meta_blocking {
            None => None,
            Some(mb) => match self.stage(STAGE_META_BLOCKING, |_| {
                p.meta_block(c, blocks, mb, &budget)
            }) {
                Ok(((kept, edges), elapsed)) => {
                    self.report.meta_blocking_time = elapsed;
                    self.report.blocked_comparisons = edges;
                    return kept;
                }
                Err(err) => Some(err),
            },
        };
        let blocked = blocks.distinct_pairs(c);
        self.report.blocked_comparisons = blocked.len() as u64;
        if let Some(err) = failure {
            // The warning goes through the event sink (stderr by default).
            p.obs().emit(Event::Warning {
                stage: STAGE_META_BLOCKING.to_string(),
                reason: format!(
                    "{err}; degrading to {} unpruned blocked comparisons",
                    blocked.len()
                ),
            });
            self.events
                .push(RecoveryEvent::MetaBlockingDegraded { error: err.message });
        }
        blocked
    }

    /// Matching over the schedule, truncated cooperatively at the stage
    /// deadline.
    fn matching(&mut self, schedule: &[Pair]) -> Result<Matched, PipelineError> {
        let (p, c) = (self.pipeline, self.collection);
        let ((scored, skipped), elapsed) = self.stage(STAGE_MATCHING, |watchdog| {
            Ok(p.score_candidates_governed(c, schedule, watchdog))
        })?;
        let report = &mut self.report;
        report.scheduled_comparisons = schedule.len() as u64;
        report.matching_time = elapsed;
        report.skipped_comparisons = skipped;
        report.matched_comparisons = report.scheduled_comparisons - skipped;
        if skipped > 0 {
            self.events
                .push(RecoveryEvent::MatchingTruncatedByDeadline {
                    skipped_comparisons: skipped,
                });
        }
        Ok(Matched {
            scored,
            blocked: report.blocked_comparisons,
            scheduled: report.scheduled_comparisons,
        })
    }

    /// The stage wrapper: opens the stage's span, runs `body` under the
    /// retry policy with a fresh watchdog per attempt (a retried stage gets
    /// the full deadline again) and returns the output with the span's own
    /// clock reading. Matching truncates at its deadline; the index-building
    /// stages have no safe early exit, so one that finished late reports the
    /// overrun instead.
    fn stage<T>(
        &mut self,
        stage: &'static str,
        body: impl Fn(&Watchdog) -> Result<T, String>,
    ) -> Result<(T, Duration), PipelineError> {
        let p = self.pipeline;
        let span = p.obs().span(match stage {
            STAGE_BLOCKING => "pipeline.blocking",
            STAGE_META_BLOCKING => "pipeline.meta_blocking",
            _ => "pipeline.matching",
        });
        let outcome = run_stage(p.obs(), stage, self.opts, &mut self.events, || {
            let watchdog = p.limits.stage_watchdog();
            body(&watchdog).map(|out| (out, watchdog.expired()))
        });
        let elapsed = span.finish();
        let (out, overran) = outcome?;
        if overran && stage != STAGE_MATCHING {
            p.note_overrun(stage);
            self.events
                .push(RecoveryEvent::StageOverranDeadline { stage });
        }
        Ok((out, elapsed))
    }

    /// The wrapper's checkpoint layer. On resume a valid checkpoint of `K`
    /// replaces `compute` — the stage and everything upstream of it; a
    /// corrupt or mismatched one is rejected with a warning. Otherwise
    /// `compute` runs, and its output is saved when complete: a resume must
    /// never replay a degraded artifact.
    fn checkpointed<K: Checkpoint>(
        &mut self,
        compute: impl FnOnce(&mut Self) -> Result<K, PipelineError>,
    ) -> Result<K, PipelineError> {
        let obs = self.pipeline.obs();
        if let Some(store) = self.store.as_ref().filter(|_| self.opts.resume) {
            match K::load(store) {
                Ok(Some(loaded)) => {
                    loaded.restore(&mut self.report);
                    self.events
                        .push(RecoveryEvent::CheckpointLoaded { stage: K::STAGE });
                    self.resumed_from = Some(K::STAGE);
                    return Ok(loaded);
                }
                Ok(None) => {}
                Err(reason) => {
                    obs.emit(Event::Warning {
                        stage: K::STAGE.to_string(),
                        reason: format!(
                            "checkpoint rejected ({reason}); running the stage from scratch"
                        ),
                    });
                    self.events.push(RecoveryEvent::CheckpointRejected {
                        stage: K::STAGE,
                        reason,
                    });
                }
            }
        }
        let out = compute(self)?;
        if let Some(store) = self.store.as_ref().filter(|_| out.complete(&self.report)) {
            match out.save(store) {
                Ok(()) => self
                    .events
                    .push(RecoveryEvent::CheckpointSaved { stage: K::STAGE }),
                Err(err) => {
                    obs.emit(Event::Warning {
                        stage: K::STAGE.to_string(),
                        reason: format!(
                            "checkpoint write failed ({err}); continuing uncheckpointed"
                        ),
                    });
                    self.events.push(RecoveryEvent::CheckpointWriteFailed {
                        stage: K::STAGE,
                        reason: err.to_string(),
                    });
                }
            }
        }
        Ok(out)
    }
}

/// Runs one stage under the retry policy: panics, stage errors and injected
/// transient faults are caught; the stage is re-run after a deterministic
/// backoff until it succeeds or the attempt budget is exhausted.
fn run_stage<T>(
    obs: &Obs,
    stage: &'static str,
    opts: &RecoveryOptions,
    events: &mut Vec<RecoveryEvent>,
    f: impl Fn() -> Result<T, String>,
) -> Result<T, PipelineError> {
    let max = opts.retry.max_attempts.max(1);
    let mut last_error = String::new();
    for attempt in 0..max {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(inj) = &opts.injector {
                inj.fire(stage, 0, attempt).map_err(|t| t.to_string())?;
            }
            f()
        }));
        match outcome {
            Ok(Ok(v)) => return Ok(v),
            Ok(Err(e)) => last_error = e,
            Err(payload) => last_error = panic_message(payload.as_ref()),
        }
        if attempt + 1 < max {
            obs.counter("recovery.stage_retries").incr();
            events.push(RecoveryEvent::StageRetried {
                stage,
                failed_attempt: attempt,
                error: last_error.clone(),
            });
            let backoff = opts.retry.backoff_for(stage, 0, attempt + 1);
            if !backoff.is_zero() {
                thread::sleep(backoff);
            }
        }
    }
    Err(PipelineError {
        stage,
        attempts: max,
        message: last_error,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}
