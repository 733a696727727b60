//! The streaming workload: for each part, a producer thread replays the
//! generated descriptions into a bounded `ArrivalQueue` (a closed loop: it
//! blocks on back-pressure), the consumer integrates them, and a closing
//! checkpoint makes the result final. Timed through `StreamingSession`, and
//! traced through the session's layers called one by one.

use crate::measure::{digest, peak_rss_mib, percentile, reset_peak_rss, LayerClock, Metrics};
use crate::workload::{read_collection, read_truth, stream_limits, Inputs, Workload};
use er_blocking::{IncrementalTokenIndex, TokenBlocking};
use er_core::collection::EntityCollection;
use er_core::entity::{EntityBuilder, EntityId};
use er_core::ground_truth::GroundTruth;
use er_core::ingest::{ArrivalQueue, IngestValidator, RawRecord};
use er_core::merge::SharedTokenMatcher;
use er_core::metrics::MatchQuality;
use er_core::resource::Watchdog;
use er_iterative::incremental::IncrementalResolver;
use er_metablocking::{BlockingGraph, IncrementalGraph};
use er_pipeline::streaming::raw_record_from_entity;
use er_pipeline::StreamingConfig;
use std::thread::JoinHandle;
use std::time::Instant;

/// Layers whose times add up, with `stream.unattributed_s`, to the traced
/// wall time (all run on the consumer thread).
pub const WALL_LAYERS: [&str; 8] = [
    "ingest.queue_s",
    "ingest.admit_s",
    "stream.index_insert_s",
    "stream.index_snapshot_s",
    "stream.graph_delta_s",
    "stream.graph_refresh_s",
    "stream.resolver_insert_s",
    "stream.re_resolve_s",
];

/// One part's input: its descriptions as raw arrivals in collection order
/// (so an arrival's accepted id is its id in the generated collection), and
/// its ground truth.
struct Part {
    arrivals: Vec<RawRecord>,
    truth: GroundTruth,
}

fn load(workload: Workload, inputs: &Inputs) -> Result<Vec<Part>, String> {
    (0..workload.parts())
        .map(|k| {
            Ok(Part {
                arrivals: read_collection(&inputs.collection(k))?
                    .iter()
                    .map(raw_record_from_entity)
                    .collect(),
                truth: read_truth(&inputs.truth(k))?,
            })
        })
        .collect()
}

/// Starts the producer: pushes every record (blocking on back-pressure),
/// then closes the queue. Yields the instant each push began.
fn produce(
    queue: ArrivalQueue,
    records: Vec<RawRecord>,
) -> JoinHandle<Result<Vec<Instant>, String>> {
    std::thread::spawn(move || {
        let mut pushed = Vec::with_capacity(records.len());
        for r in records {
            pushed.push(Instant::now());
            if let Err(e) = queue.push(r) {
                queue.close();
                return Err(e.to_string());
            }
        }
        queue.close();
        Ok(pushed)
    })
}

/// Runs the consumer loop, then joins the producer; closes the queue first
/// if the consumer failed, so the producer cannot stay blocked.
fn consume(
    queue: &ArrivalQueue,
    producer: JoinHandle<Result<Vec<Instant>, String>>,
    consumer: impl FnOnce() -> Result<(), String>,
) -> Result<Vec<Instant>, String> {
    let consumed = consumer();
    if consumed.is_err() {
        queue.close();
    }
    let pushed = producer
        .join()
        .map_err(|_| "producer thread panicked".to_string())?;
    consumed?;
    pushed
}

/// Sums the confusion counts of two parts.
fn pool(a: MatchQuality, b: MatchQuality) -> MatchQuality {
    MatchQuality {
        tp: a.tp + b.tp,
        fp: a.fp + b.fp,
        fn_: a.fn_ + b.fn_,
    }
}

/// Quality of the pairs inside one part's clusters.
fn quality(n: usize, clusters: &[Vec<EntityId>], truth: &GroundTruth) -> MatchQuality {
    let pairs: Vec<_> = GroundTruth::from_clusters(clusters.iter()).iter().collect();
    MatchQuality::measure(n, &pairs, truth)
}

fn resolver() -> IncrementalResolver<SharedTokenMatcher> {
    IncrementalResolver::new(SharedTokenMatcher::new(
        StreamingConfig::default().match_overlap,
    ))
}

/// The clusters every correct run must end with: for each part, the
/// resolver re-run from scratch over the accepted collection — the closing
/// step of a checkpoint. Returns the digest of all parts' clusters.
pub fn reference(workload: Workload, inputs: &Inputs) -> Result<u64, String> {
    let mut all = Vec::new();
    for k in 0..workload.parts() {
        let collection = read_collection(&inputs.collection(k))?;
        let mut resolver = resolver();
        resolver
            .re_resolve(&collection, &Watchdog::disarmed())
            .map_err(|e| e.to_string())?;
        all.extend(resolver.clusters());
    }
    Ok(digest(&[], &all))
}

/// Times every part's stream through `StreamingSession`, each from its first
/// push to the return of its closing `checkpoint()`, and sums them. Checks
/// that every arrival was accepted and that each session's blocks equal a
/// `TokenBlocking` build of its accepted collection; returns the end-to-end
/// metrics and the digest of all parts' clusters.
pub fn timed(workload: Workload, inputs: &Inputs) -> Result<(Metrics, u64), String> {
    let parts = load(workload, inputs)?;
    let (mut wall_s, mut checkpoint_s, mut accepted) = (0.0, 0.0, 0usize);
    let mut latencies_ms = Vec::new();
    let mut q = MatchQuality {
        tp: 0,
        fp: 0,
        fn_: 0,
    };
    let mut all = Vec::new();
    reset_peak_rss();
    for part in parts {
        let total = part.arrivals.len();
        let mut session = workload.session();
        let queue = session.queue();
        let mut integrated = vec![None; total];
        let (mut next, mut flushed) = (0usize, 0usize);
        let start = Instant::now();
        let producer = produce(session.queue(), part.arrivals);
        let pushed = consume(&queue, producer, || {
            while let Some(record) = queue.pop() {
                session.offer(record).map_err(|e| e.to_string())?;
                next += 1;
                if session.staged_len() == 0 {
                    integrated[flushed..next].fill(Some(Instant::now()));
                    flushed = next;
                }
            }
            session.flush().map_err(|e| e.to_string())?;
            integrated[flushed..next].fill(Some(Instant::now()));
            Ok(())
        })?;
        let checkpoint_start = Instant::now();
        session.checkpoint().map_err(|e| e.to_string())?;
        checkpoint_s += checkpoint_start.elapsed().as_secs_f64();
        wall_s += start.elapsed().as_secs_f64();

        let taken = session.quarantine_report().accepted() as usize;
        if taken != total || next != total {
            return Err(format!(
                "{taken} of {total} arrivals accepted, {next} consumed"
            ));
        }
        if session.blocks() != TokenBlocking::new().build(session.collection()) {
            return Err("session blocks differ from a TokenBlocking build".to_string());
        }
        for (push, done) in pushed.iter().zip(&integrated) {
            let done = done.ok_or("an arrival was never integrated")?;
            latencies_ms.push(done.duration_since(*push).as_secs_f64() * 1e3);
        }
        let clusters = session.clusters();
        q = pool(q, quality(total, &clusters, &part.truth));
        accepted += taken;
        all.extend(clusters);
    }
    let mut m = Metrics::new();
    m.insert("wall_s".into(), wall_s);
    m.insert("throughput_dps".into(), accepted as f64 / wall_s);
    m.insert("peak_rss_mib".into(), peak_rss_mib()?);
    // The pairs inside the clusters are closed already, so pair precision
    // and closure precision coincide.
    m.insert("pair_precision".into(), q.precision());
    m.insert("recall".into(), q.recall());
    m.insert("integrate_p50_ms".into(), percentile(&latencies_ms, 0.5));
    m.insert("integrate_p99_ms".into(), percentile(&latencies_ms, 0.99));
    m.insert("checkpoint_s".into(), checkpoint_s);
    Ok((m, digest(&[], &all)))
}

/// The session's layers, driven one call at a time exactly as
/// `StreamingSession::offer`, `flush` and `checkpoint` drive them.
struct Layers {
    config: StreamingConfig,
    validator: IngestValidator,
    collection: EntityCollection,
    index: IncrementalTokenIndex,
    graph: IncrementalGraph,
    resolver: IncrementalResolver<SharedTokenMatcher>,
    staged: Vec<EntityId>,
    batches: u64,
}

impl Layers {
    fn new() -> Layers {
        let config = StreamingConfig::default();
        Layers {
            validator: IngestValidator::new(config.ingest.clone()),
            collection: EntityCollection::new(config.mode),
            index: IncrementalTokenIndex::new(),
            graph: IncrementalGraph::new(),
            resolver: resolver(),
            staged: Vec::new(),
            batches: 0,
            config,
        }
    }

    fn offer(&mut self, record: RawRecord, clock: &mut LayerClock) -> Result<(), String> {
        let validator = &mut self.validator;
        let Some(accepted) = clock.time("ingest.admit_s", || validator.admit(record)) else {
            return Err("an arrival was quarantined".to_string());
        };
        let mut builder = EntityBuilder::new().uri(accepted.id);
        for (name, value) in accepted.attributes {
            builder = builder.attr(name, value);
        }
        self.staged
            .push(self.collection.push_entity(accepted.kb, builder));
        if self.staged.len() >= self.config.batch_size {
            self.flush(clock)?;
        }
        Ok(())
    }

    fn flush(&mut self, clock: &mut LayerClock) -> Result<(), String> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let staged = std::mem::take(&mut self.staged);
        let (index, graph, collection) = (&mut self.index, &mut self.graph, &self.collection);
        let delta = clock.time("stream.index_insert_s", || {
            index.insert_batch(staged.iter().map(|&id| collection.entity(id)))
        });
        clock.time("stream.graph_delta_s", || {
            graph.apply_delta(index, &delta, collection)
        });
        let resolver = &mut self.resolver;
        clock.time("stream.resolver_insert_s", || {
            let watchdog = Watchdog::disarmed();
            staged.iter().try_for_each(|&id| {
                resolver
                    .insert_guarded(collection.entity(id), &watchdog)
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
        })?;
        self.batches += 1;
        let every = self.config.refresh_every as u64;
        if every > 0 && self.batches.is_multiple_of(every) {
            self.refresh(clock);
        }
        Ok(())
    }

    fn refresh(&mut self, clock: &mut LayerClock) {
        let index = &self.index;
        let blocks = clock.time("stream.index_snapshot_s", || index.snapshot_blocks());
        let (graph, collection, par) = (&mut self.graph, &self.collection, self.config.parallelism);
        clock.time("stream.graph_refresh_s", || {
            graph.refresh(collection, &blocks, par)
        });
    }

    fn checkpoint(&mut self, clock: &mut LayerClock) -> Result<(), String> {
        self.flush(clock)?;
        self.refresh(clock);
        let (resolver, collection) = (&mut self.resolver, &self.collection);
        clock
            .time("stream.re_resolve_s", || {
                resolver.re_resolve(collection, &Watchdog::disarmed())
            })
            .map(drop)
            .map_err(|e| e.to_string())
    }
}

/// The traced streams: the same closed loop as [`timed`], with the
/// session's layers called and timed one by one, summed over the parts.
/// Checks each part's incremental blocks and graph against their batch
/// builds; returns the per-layer metrics and the digest of all parts'
/// clusters.
pub fn layered(workload: Workload, inputs: &Inputs) -> Result<(Metrics, u64), String> {
    let mut clock = LayerClock::default();
    let mut m = Metrics::new();
    let mut add = |name: &str, v: f64| *m.entry(name.to_string()).or_insert(0.0) += v;
    let mut all = Vec::new();
    let mut high_watermark = 0u64;
    let mut pooled = MatchQuality {
        tp: 0,
        fp: 0,
        fn_: 0,
    };
    for part in load(workload, inputs)? {
        let queue = ArrivalQueue::new(stream_limits().budget());
        let mut layers = Layers::new();
        let start = Instant::now();
        let producer = produce(queue.clone(), part.arrivals);
        consume(&queue, producer, || {
            while let Some(record) = clock.time("ingest.queue_s", || queue.pop()) {
                layers.offer(record, &mut clock)?;
            }
            Ok(())
        })?;
        let incremental = layers.resolver.stats();
        layers.checkpoint(&mut clock)?;
        add("stream.wall_s", start.elapsed().as_secs_f64());
        let resolved = layers.resolver.stats();
        add(
            "stream.resolver_comparisons",
            (incremental.comparisons + resolved.comparisons) as f64,
        );
        add(
            "stream.resolver_merges",
            (incremental.merges + resolved.merges) as f64,
        );
        add(
            "ingest.backpressure_waits",
            queue.backpressure_waits() as f64,
        );
        high_watermark = high_watermark.max(queue.high_watermark());
        add("stream.graph_edges", layers.graph.graph().n_edges() as f64);

        let blocks = layers.index.snapshot_blocks();
        if blocks != TokenBlocking::new().build(&layers.collection) {
            return Err("incremental blocks differ from a TokenBlocking build".to_string());
        }
        let batch_graph =
            BlockingGraph::par_build(&layers.collection, &blocks, layers.config.parallelism);
        if layers.graph.graph() != &batch_graph {
            return Err("refreshed graph differs from a BlockingGraph build".to_string());
        }
        let clusters = layers.resolver.clusters();
        let q = clock.time("evaluate.s", || {
            quality(layers.collection.len(), &clusters, &part.truth)
        });
        pooled = pool(pooled, q);
        all.extend(clusters);
    }
    m.insert("evaluate.precision".into(), pooled.precision());
    m.insert("evaluate.pair_precision".into(), pooled.precision());
    m.insert("evaluate.recall".into(), pooled.recall());
    m.insert(
        "ingest.queue_high_watermark_bytes".into(),
        high_watermark as f64,
    );
    for layer in WALL_LAYERS.iter().chain(&["evaluate.s"]) {
        m.insert(layer.to_string(), clock.seconds(layer));
    }
    let attributed: f64 = WALL_LAYERS.iter().map(|l| m[*l]).sum();
    m.insert(
        "stream.unattributed_s".into(),
        m["stream.wall_s"] - attributed,
    );
    Ok((m, digest(&[], &all)))
}
