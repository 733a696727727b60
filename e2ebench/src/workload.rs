//! The three workloads: what each generates from the seed, how it is
//! configured, and the set-up step that turns a seed into files on disk.

use er_core::collection::EntityCollection;
use er_core::fault::RetryPolicy;
use er_core::ground_truth::GroundTruth;
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_core::resource::ResourceLimits;
use er_datagen::{DirtyConfig, DirtyDataset, LodConfig, LodDataset};
use er_pipeline::{CleaningStage, Pipeline, RecoveryOptions, StreamingConfig, StreamingSession};
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// Bytes the streaming workload's arrival queue may buffer before its
/// producer blocks: about eight generated records (each is charged its
/// payload plus 48 bytes; none has been over 250), far fewer than a batch
/// of 64. So nearly every arrival waits for its own batch's flush only, and
/// the median latency is that of a flush. A queue holding one to four
/// batches splits the arrivals into groups that wait through different
/// numbers of flushes, and the median jumps between two groups from run to
/// run.
const QUEUE_BYTES: u64 = 1024;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Dirty ER at 8,000 entities under the exact `er resolve` defaults:
    /// meta-blocking over the unpurged token blocks dominates. Runs by name
    /// only, outside `BENCHMARK.json`: its single-threaded 11-second
    /// resolutions follow the host's speed drift too closely for the bound.
    DirtyUnpurged,
    /// The Web-of-data regime: five KBs in clean–clean mode under the
    /// `Pipeline::builder()` defaults, 2 threads, checkpoints written.
    LodPurged,
    /// Dirty streams replayed through the streaming session.
    StreamIngest,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::DirtyUnpurged,
        Workload::LodPurged,
        Workload::StreamIngest,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DirtyUnpurged => "dirty-unpurged",
            Workload::LodPurged => "lod-purged",
            Workload::StreamIngest => "stream-ingest",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload resolves a whole collection with the batch
    /// pipeline (as opposed to replaying it as a stream).
    pub fn is_batch(self) -> bool {
        self != Workload::StreamIngest
    }

    /// Generator size: entities for the dirty generator, the universe for
    /// the LOD generator. Smoke mode keeps every workload at a few hundred
    /// descriptions.
    fn size(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Workload::DirtyUnpurged, false) => 8_000,
            (Workload::LodPurged, false) => 20_000,
            (Workload::StreamIngest, false) => 175,
            (Workload::DirtyUnpurged, true) => 200,
            (Workload::LodPurged, true) => 120,
            (Workload::StreamIngest, true) => 40,
        }
    }

    /// Independent datasets one run resolves. The streaming workload replays
    /// several short streams: one stream's cost hinges on how early its
    /// largest profile forms, which varies from seed to seed, and summing
    /// over independent streams evens that out. Twelve streams of 175
    /// entities vary from seed to seed about as little as four of 350 but
    /// take about two thirds as long (a stream's cost grows faster than its
    /// length), so a run holds more of them.
    pub fn parts(self) -> usize {
        match self {
            Workload::DirtyUnpurged | Workload::LodPurged => 1,
            Workload::StreamIngest => 12,
        }
    }

    /// Generates part `part` of the workload's input from the seed: its
    /// collection and ground truth. Part 0 uses the seed itself.
    pub fn generate(self, seed: u64, part: usize, smoke: bool) -> (EntityCollection, GroundTruth) {
        let seed = seed ^ ((part as u64) << 32);
        match self {
            Workload::DirtyUnpurged | Workload::StreamIngest => {
                let ds = DirtyDataset::generate(&DirtyConfig {
                    entities: self.size(smoke),
                    seed,
                    ..DirtyConfig::default()
                });
                (ds.collection, ds.truth)
            }
            Workload::LodPurged => {
                let ds = LodDataset::generate(&LodConfig {
                    universe: self.size(smoke),
                    seed,
                    ..LodConfig::default()
                });
                (ds.collection, ds.truth)
            }
        }
    }

    /// Worker threads of the hot kernels.
    pub fn parallelism(self) -> Parallelism {
        match self {
            Workload::LodPurged => Parallelism::threads(2),
            Workload::DirtyUnpurged | Workload::StreamIngest => Parallelism::serial(),
        }
    }

    /// Whether purging runs between blocking and meta-blocking.
    pub fn purges(self) -> bool {
        self == Workload::LodPurged
    }

    /// The batch pipeline, recording into `obs`. `dirty-unpurged` mirrors
    /// `er resolve` with no flags (which turns cleaning off); `lod-purged`
    /// keeps the builder's defaults (auto-purge) and adds 2 threads.
    pub fn pipeline(self, obs: Obs) -> Pipeline {
        let builder = Pipeline::builder()
            .parallelism(self.parallelism())
            .observability(obs);
        match self {
            Workload::DirtyUnpurged => builder.cleaning(CleaningStage::None).build(),
            Workload::LodPurged | Workload::StreamIngest => builder.build(),
        }
    }

    /// The recovery options of a timed batch run: the CLI's default retry
    /// policy, plus a checkpoint directory on `lod-purged`.
    pub fn recovery(self, checkpoint_dir: &Path) -> RecoveryOptions {
        let opts = RecoveryOptions::retrying(RetryPolicy::attempts(3));
        if self == Workload::LodPurged {
            opts.checkpoint_dir(checkpoint_dir)
        } else {
            opts
        }
    }

    /// The streaming session: `StreamingSession` defaults behind a bounded
    /// arrival queue.
    pub fn session(self) -> StreamingSession {
        StreamingSession::new(StreamingConfig::default(), stream_limits())
    }
}

/// Resource limits of the streaming workload: only the arrival queue is
/// bounded.
pub fn stream_limits() -> ResourceLimits {
    ResourceLimits::none().with_memory_bytes(QUEUE_BYTES)
}

/// Where one set-up writes its files.
pub struct Inputs {
    dir: PathBuf,
}

impl Inputs {
    /// The inputs under a work directory.
    pub fn in_dir(dir: &Path) -> Inputs {
        Inputs {
            dir: dir.to_path_buf(),
        }
    }

    /// Part `part`'s collection, in the `er_core::io` text format.
    pub fn collection(&self, part: usize) -> PathBuf {
        self.dir.join(format!("collection-{part}.txt"))
    }

    /// Part `part`'s ground-truth pairs.
    pub fn truth(&self, part: usize) -> PathBuf {
        self.dir.join(format!("truth-{part}.txt"))
    }

    /// A scratch path next to the inputs.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// One set-up: generate every part of the dataset from the seed, write the
/// collection and truth files, and build the pipeline or session. Returns
/// the number of descriptions.
pub fn set_up(
    workload: Workload,
    seed: u64,
    smoke: bool,
    inputs: &Inputs,
) -> Result<usize, String> {
    let mut descriptions = 0;
    for part in 0..workload.parts() {
        let (collection, truth) = workload.generate(seed, part, smoke);
        write_file(&inputs.collection(part), |w| {
            er_core::io::write_collection(w, &collection)
        })?;
        write_file(&inputs.truth(part), |w| er_core::io::write_truth(w, &truth))?;
        if workload.is_batch() {
            std::hint::black_box(workload.pipeline(Obs::disabled()));
        } else {
            std::hint::black_box(workload.session());
        }
        descriptions += collection.len();
    }
    Ok(descriptions)
}

fn write_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), String> {
    use std::io::Write;
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    write(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads the collection file the set-up wrote.
pub fn read_collection(path: &Path) -> Result<EntityCollection, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    er_core::io::read_collection(&mut std::io::BufReader::new(f)).map_err(|e| e.to_string())
}

/// Reads the truth file the set-up wrote.
pub fn read_truth(path: &Path) -> Result<GroundTruth, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    er_core::io::read_truth(&mut std::io::BufReader::new(f)).map_err(|e| e.to_string())
}
