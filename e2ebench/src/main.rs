//! End-to-end and per-layer benchmark of the entity-resolution pipeline.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload dirty-unpurged [--seed 7] [--seconds 10] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--trace 0` the benchmark sets the workload up several times, computes
//! the reference output with the layered composition, then runs timed
//! resolutions for `--seconds` seconds, each in a fresh child process so its
//! peak RSS is its own, checks every output against the reference, and prints
//! the medians of the end-to-end metrics. With `--trace 1` it runs the traced
//! composition instead, which calls each layer's public function and times
//! it, and prints the per-layer metrics of the run with the median traced
//! wall time. The last line of standard output is one JSON object; a table
//! for people goes to standard error. See `e2ebench/README.md`.

mod batch;
mod measure;
mod stream;
mod workload;

use measure::{median, Metrics};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{set_up, Inputs, Workload};

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_dps", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("pair_precision", "ratio"),
    ("recall", "ratio"),
    ("integrate_p50_ms", "ms"),
    ("integrate_p99_ms", "ms"),
    ("checkpoint_s", "s"),
];

/// Per-layer metrics (`--trace 1`) with their units. A layer a workload does
/// not run reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("io.read_s", "s"),
    ("blocking.build_s", "s"),
    ("blocking.blocks", "count"),
    ("blocking.interner_symbols", "count"),
    ("cleaning.purge_s", "s"),
    ("cleaning.blocks_kept", "count"),
    ("blocking.distinct_pairs_s", "s"),
    ("blocking.distinct_pairs", "count"),
    ("metablocking.graph_build_s", "s"),
    ("metablocking.edges", "count"),
    ("metablocking.edge_sort_bytes", "bytes"),
    ("metablocking.prune_s", "s"),
    ("metablocking.kept", "count"),
    ("metablocking.kept_ratio", "ratio"),
    ("matching.decide_s", "s"),
    ("matching.comparisons", "count"),
    ("matching.matches", "count"),
    ("matching.match_ratio", "ratio"),
    ("matching.ns_per_comparison", "ns"),
    ("clustering.s", "s"),
    ("clustering.clusters", "count"),
    ("clustering.largest_cluster", "count"),
    ("evaluate.s", "s"),
    ("evaluate.precision", "ratio"),
    ("evaluate.pair_precision", "ratio"),
    ("evaluate.recall", "ratio"),
    ("recovery.checkpoint_s", "s"),
    ("recovery.checkpoint_bytes", "bytes"),
    ("pipeline.wall_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("ingest.queue_s", "s"),
    ("ingest.admit_s", "s"),
    ("ingest.backpressure_waits", "count"),
    ("ingest.queue_high_watermark_bytes", "bytes"),
    ("stream.index_insert_s", "s"),
    ("stream.index_snapshot_s", "s"),
    ("stream.graph_delta_s", "s"),
    ("stream.graph_refresh_s", "s"),
    ("stream.graph_edges", "count"),
    ("stream.resolver_insert_s", "s"),
    ("stream.re_resolve_s", "s"),
    ("stream.resolver_comparisons", "count"),
    ("stream.resolver_merges", "count"),
    ("stream.wall_s", "s"),
    ("stream.unattributed_s", "s"),
    ("trace.runs", "count"),
    ("workload.descriptions", "count"),
];

/// Child processes that each set the workload up repeatedly; `setup_s` is
/// the median of their medians. A set-up of a few milliseconds runs faster
/// or slower by a fifth from one process to the next (code and data
/// placement differ per process), so one process would not do.
const SETUP_PROCESSES: usize = 5;

/// Set-ups per set-up process, at least.
const SETUPS: usize = 2;

/// Seconds of set-ups per set-up process, at least.
const SETUP_SECONDS: f64 = 0.4;

/// What one invocation was asked to do.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// `Some` in a child process: which single job to run.
    child: Option<Job>,
    work: Option<PathBuf>,
}

/// The jobs a child process runs; each prints its metrics and digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Job {
    /// Repeated set-ups: their median time and the description count.
    SetUp,
    /// The reference output: the layered composition's digest.
    Reference,
    /// One timed resolution through the program's public entry point.
    Timed,
    /// One traced composition, checked against the timed path's output.
    Trace,
}

impl Job {
    fn name(self) -> &'static str {
        match self {
            Job::SetUp => "setup",
            Job::Reference => "reference",
            Job::Timed => "timed",
            Job::Trace => "trace",
        }
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::DirtyUnpurged,
        seed: 7,
        seconds: 10.0,
        trace: false,
        smoke: false,
        child: None,
        work: None,
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !args.seconds.is_finite() || args.seconds < 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--child" => {
                args.child = Some(
                    [Job::SetUp, Job::Reference, Job::Timed, Job::Trace]
                        .into_iter()
                        .find(|j| j.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--work" => args.work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or(
        "--workload is required (dirty-unpurged, lod-purged or stream-ingest)".to_string(),
    )?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.child, &args.work) {
        (Some(job), Some(work)) => {
            run_job(job, &args, &Inputs::in_dir(work)).map(|(metrics, digest)| {
                for (name, value) in &metrics {
                    println!("{name} {value}");
                }
                println!("digest {digest}");
            })
        }
        (Some(_), None) => Err("--child needs --work".to_string()),
        (None, _) => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one job in this process.
fn run_job(job: Job, args: &Args, inputs: &Inputs) -> Result<(Metrics, u64), String> {
    let workload = args.workload;
    match (job, workload.is_batch()) {
        (Job::SetUp, _) => {
            let mut times = Vec::new();
            let mut descriptions = 0;
            while times.len() < SETUPS || times.iter().sum::<f64>() < SETUP_SECONDS {
                let t = Instant::now();
                descriptions = set_up(workload, args.seed, args.smoke, inputs)?;
                times.push(t.elapsed().as_secs_f64());
            }
            let mut m = Metrics::new();
            m.insert("setup_s".into(), median(&times));
            m.insert("workload.descriptions".into(), descriptions as f64);
            Ok((m, 0))
        }
        (Job::Reference, true) => batch::layered(workload, inputs, false),
        (Job::Reference, false) => Ok((Metrics::new(), stream::reference(workload, inputs)?)),
        (Job::Timed, true) => batch::timed(workload, inputs),
        (Job::Timed, false) => stream::timed(workload, inputs),
        (Job::Trace, true) => {
            let (metrics, traced) = batch::layered(workload, inputs, true)?;
            let (_, expected) = batch::timed(workload, inputs)?;
            check_traced(&metrics, traced, expected, &batch::WALL_LAYERS, "pipeline")?;
            Ok((metrics, traced))
        }
        (Job::Trace, false) => {
            let (metrics, traced) = stream::layered(workload, inputs)?;
            let expected = stream::reference(workload, inputs)?;
            check_traced(&metrics, traced, expected, &stream::WALL_LAYERS, "stream")?;
            Ok((metrics, traced))
        }
    }
}

/// Checks a traced run: its output must equal the timed path's, and its
/// layer times plus `<prefix>.unattributed_s` must add up to
/// `<prefix>.wall_s` with a remainder that is not negative (a negative one
/// would mean a layer was counted twice).
fn check_traced(
    m: &Metrics,
    traced: u64,
    expected: u64,
    layers: &[&str],
    prefix: &str,
) -> Result<(), String> {
    if traced != expected {
        return Err(format!(
            "traced output {traced:x} differs from the timed path's {expected:x}"
        ));
    }
    let attributed: f64 = layers
        .iter()
        .map(|l| m.get(*l).copied().unwrap_or(0.0))
        .sum();
    let wall = m[&format!("{prefix}.wall_s")];
    let unattributed = m[&format!("{prefix}.unattributed_s")];
    if (attributed + unattributed - wall).abs() > 1e-9 * wall.max(1.0) || unattributed < 0.0 {
        return Err(format!(
            "layer times {attributed} + unattributed {unattributed} do not add up to wall {wall}"
        ));
    }
    Ok(())
}

/// A scratch directory inside the current directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Runs `job` in a fresh child process and parses what it prints.
fn spawn_job(job: Job, args: &Args, work: &Path) -> Result<(Metrics, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", job.name(), "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--work")
        .arg(work);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{} job failed ({})", job.name(), out.status));
    }
    let mut metrics = Metrics::new();
    let mut digest = None;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let (name, value) = line
            .split_once(' ')
            .ok_or(format!("bad child line {line:?}"))?;
        if name == "digest" {
            digest = value.parse().ok();
        } else {
            let v: f64 = value
                .parse()
                .map_err(|_| format!("bad child line {line:?}"))?;
            if !v.is_finite() {
                return Err(format!("{name} is not finite"));
            }
            metrics.insert(name.to_string(), v);
        }
    }
    Ok((metrics, digest.ok_or("child printed no digest")?))
}

/// The parent process: set-up, then timed or traced children for
/// `--seconds` seconds, then the result line.
fn run(args: &Args) -> Result<(), String> {
    let work = WorkDir::create()?;
    let mut setups = Vec::new();
    let mut descriptions = 0.0;
    for _ in 0..SETUP_PROCESSES {
        let (m, _) = spawn_job(Job::SetUp, args, &work.0)?;
        setups.push(m["setup_s"]);
        descriptions = m["workload.descriptions"];
    }
    eprintln!(
        "{}: seed {}, {descriptions} descriptions{}; set-up medians {setups:.6?} s",
        args.workload.name(),
        args.seed,
        if args.smoke { " (smoke)" } else { "" },
    );

    let (job, reference) = if args.trace {
        (Job::Trace, None)
    } else {
        (
            Job::Timed,
            Some(spawn_job(Job::Reference, args, &work.0)?.1),
        )
    };
    let start = Instant::now();
    let mut samples: Vec<Metrics> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    while attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        match spawn_job(job, args, &work.0) {
            Ok((m, digest)) if reference.is_none() || reference == Some(digest) => {
                eprintln!("  run {attempted}: wall {:.3} s", wall(&m));
                samples.push(m);
            }
            Ok((_, digest)) => {
                eprintln!("error: output {digest:x} differs from the reference {reference:x?}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed += 1;
            }
        }
    }

    let mut metrics = Metrics::new();
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !samples.is_empty() {
        if args.trace {
            metrics = median_run(&samples);
            metrics.insert("workload.descriptions".into(), descriptions);
        } else {
            for (name, _) in &END_TO_END[1..] {
                let values: Vec<f64> = samples.iter().map(|s| s[*name]).collect();
                metrics.insert(name.to_string(), median(&values));
            }
            metrics.insert("setup_s".into(), median(&setups));
        }
    }
    print_table(args, table, &metrics, attempted, failed);
    print_result(
        failed == 0 && !samples.is_empty(),
        attempted,
        failed,
        table,
        &metrics,
    );
    if samples.is_empty() {
        return Err("every run failed".to_string());
    }
    Ok(())
}

/// A run's wall time: the timed one, or the traced batch or stream one.
fn wall(m: &Metrics) -> f64 {
    ["wall_s", "pipeline.wall_s", "stream.wall_s"]
        .iter()
        .find_map(|k| m.get(*k).copied())
        .unwrap_or(0.0)
}

/// The traced run with the median traced wall time (the lower median for
/// an even count): taking one whole run keeps its layer times summing to
/// its wall time, which per-metric medians would not.
fn median_run(samples: &[Metrics]) -> Metrics {
    let mut order: Vec<&Metrics> = samples.iter().collect();
    order.sort_by(|a, b| wall(a).total_cmp(&wall(b)));
    let mut m = order[(order.len() - 1) / 2].clone();
    m.insert("trace.runs".into(), samples.len() as f64);
    m
}

/// A table for people on standard error: every metric with its unit, the
/// error rate, and for per-layer times their share of the traced wall time.
fn print_table(args: &Args, table: &[(&str, &str)], m: &Metrics, attempted: u64, failed: u64) {
    eprintln!(
        "{} ({} mode, {} of {attempted} run(s) kept):",
        args.workload.name(),
        if args.trace { "traced" } else { "end-to-end" },
        attempted - failed
    );
    let traced_wall = Some(wall(m)).filter(|w| args.trace && *w > 0.0);
    for (name, unit) in table {
        let value = m.get(*name).copied().unwrap_or(0.0);
        match traced_wall {
            Some(w) if *unit == "s" => {
                eprintln!(
                    "  {name:<36} {value:>14.6} {unit:<6} {:>6.1}%",
                    100.0 * value / w
                )
            }
            _ => eprintln!("  {name:<36} {value:>14.6} {unit}"),
        }
    }
    let error_rate = failed as f64 / attempted as f64;
    eprintln!(
        "  {:<36} {error_rate:>14.6} ratio (failed / attempted)",
        "error_rate"
    );
}

/// The result line: the last line of standard output. Every metric of the
/// table is printed (a layer the workload does not run reads 0), unless no
/// run succeeded.
fn print_result(correct: bool, attempted: u64, failed: u64, table: &[(&str, &str)], m: &Metrics) {
    let body: Vec<String> = if m.is_empty() {
        Vec::new()
    } else {
        table
            .iter()
            .map(|(name, unit)| {
                let v = m.get(*name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke mode: every workload at a few hundred descriptions, with the
    /// output checks on, run in this process.
    #[test]
    fn smoke_runs_every_workload_with_checks() {
        for workload in Workload::ALL {
            let name = workload.name();
            let dir = std::env::temp_dir().join(format!("e2ebench-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let inputs = Inputs::in_dir(&dir);
            let args = parse_args(
                ["--workload", name, "--smoke"]
                    .into_iter()
                    .map(String::from),
            )
            .unwrap();
            let (setup, _) = run_job(Job::SetUp, &args, &inputs).unwrap();
            let n = setup["workload.descriptions"];
            assert!((100.0..1000.0).contains(&n), "{name}: {n} descriptions");
            let (_, reference) = run_job(Job::Reference, &args, &inputs).unwrap();
            let (timed, digest) = run_job(Job::Timed, &args, &inputs).unwrap();
            assert_eq!(digest, reference, "{name}");
            for (metric, _) in &END_TO_END[1..] {
                assert!(
                    timed[*metric] > 0.0,
                    "{name}: {metric} = {}",
                    timed[*metric]
                );
            }
            let (traced, digest) = run_job(Job::Trace, &args, &inputs).unwrap();
            assert_eq!(digest, reference, "{name}");
            for metric in traced.keys() {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == metric),
                    "unlisted metric {metric}"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn traced_runs_must_add_up_and_match() {
        let mut m = Metrics::new();
        m.insert("pipeline.wall_s".into(), 1.0);
        m.insert("io.read_s".into(), 0.4);
        m.insert("matching.decide_s".into(), 0.5);
        m.insert("pipeline.unattributed_s".into(), 0.1);
        let layers = ["io.read_s", "matching.decide_s", "clustering.s"];
        assert!(check_traced(&m, 1, 1, &layers, "pipeline").is_ok());
        assert!(check_traced(&m, 1, 2, &layers, "pipeline").is_err());
        m.insert("pipeline.unattributed_s".into(), 0.2);
        assert!(check_traced(&m, 1, 1, &layers, "pipeline").is_err());
        m.insert("io.read_s".into(), 0.6);
        m.insert("pipeline.unattributed_s".into(), -0.1);
        assert!(check_traced(&m, 1, 1, &layers, "pipeline").is_err());
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload lod-purged --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload lod-purged --trace 2").is_err());
        assert!(parse("--seed 3").is_err());
    }
}
