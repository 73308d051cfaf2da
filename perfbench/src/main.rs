//! End-to-end and per-layer benchmark of the PSCA pipeline and serving
//! daemon. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-predict --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Standard output ends with one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`).

mod host;
mod http;
mod pipeline;
mod serve;
mod spans;
mod stats;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use psca_obs::Json;

use serve::Endpoint;
use spans::Trace;

/// Every thread count the benchmark sets: client connections, experiment
/// jobs and daemon workers. Pinned rather than resolved from the host so
/// every host runs the same load. One, so that at most one thread of the
/// benchmark is busy at a time and a second core absorbs whatever else
/// the host runs; with two busy threads on two shared cores, the
/// measurements followed the host's scheduler rather than the program.
pub const THREADS: usize = 1;

/// Op ids from here up label set-up and probe work rather than timed ops.
pub const SETUP_OP: u64 = 1 << 40;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One op is a full pass of the quick-scale experiment pipeline.
    PipelineQuick,
    /// One op fits every model family on the quick-scale HDTR corpus.
    TrainZoo,
    /// One op is a single-row gating prediction over HTTP.
    ServePredict,
    /// One op is a closed-loop simulation over HTTP.
    ServeClosedLoop,
}

impl Workload {
    /// All workloads, in the order they are listed.
    pub const ALL: [Workload; 4] = [
        Workload::PipelineQuick,
        Workload::TrainZoo,
        Workload::ServePredict,
        Workload::ServeClosedLoop,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineQuick => "pipeline-quick",
            Workload::TrainZoo => "train-zoo",
            Workload::ServePredict => "serve-predict",
            Workload::ServeClosedLoop => "serve-closed-loop",
        }
    }

    /// Fewest ops a run measures, however long that takes.
    fn min_ops(self) -> u64 {
        match self {
            Workload::PipelineQuick => 5,
            // One window: enough ops for a p95.
            Workload::TrainZoo => MIN_WINDOW_OPS as u64,
            Workload::ServePredict | Workload::ServeClosedLoop => serve::DIGEST_OPS,
        }
    }

    /// Ops of the short traced slice that measures this workload's layers
    /// when another workload is being traced.
    fn slice_ops(self) -> u64 {
        match self {
            Workload::PipelineQuick => 1,
            Workload::TrainZoo => 24,
            Workload::ServePredict => 400,
            Workload::ServeClosedLoop => 48,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median.
    fn setups(self) -> usize {
        match self {
            Workload::PipelineQuick => 3,
            Workload::TrainZoo => 5,
            Workload::ServePredict | Workload::ServeClosedLoop => 7,
        }
    }

    fn run(self, plan: &Plan) -> std::io::Result<Outcome> {
        match self {
            Workload::PipelineQuick => Ok(pipeline::run(plan)),
            Workload::TrainZoo => Ok(train::run(plan)),
            Workload::ServePredict => serve::run(Endpoint::Predict, plan),
            Workload::ServeClosedLoop => serve::run(Endpoint::ClosedLoop, plan),
        }
    }
}

/// How one workload is run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Least time the timed phase lasts.
    pub seconds: f64,
    /// Least number of ops the timed phase sends.
    pub min_ops: u64,
    /// Set-ups to time; the last one serves the timed phase.
    pub setups: usize,
    /// Whether half the ops record spans (see [`Plan::is_traced_op`]).
    pub traced: bool,
    /// Threads for clients, experiment sweeps and daemon workers.
    pub jobs: usize,
    /// Epoch of every span in the run.
    pub epoch: Instant,
}

/// Length of the shortest run of ops that holds every op kind once:
/// a multiple of the predict cycle (2 models × 2 modes) and of the
/// closed-loop cycle (12 archetypes × 2 models).
const OP_CYCLE: u64 = 24;

impl Plan {
    /// True when op `i` records spans. Traced and untraced ops alternate,
    /// and the alternation flips phase every [`OP_CYCLE`] ops, so every op
    /// kind is traced as often as it is not.
    pub fn is_traced_op(&self, i: u64) -> bool {
        self.traced && (i + i / OP_CYCLE).is_multiple_of(2)
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Ops sent in the timed phase.
    pub attempted: u64,
    /// Ops that were refused, errored or failed verification.
    pub failed: u64,
    /// Digest of the workload's outputs for the seed.
    pub digest: u64,
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each successful untraced op in op order, seconds.
    pub untraced_s: Vec<f64>,
    /// Latency of each successful traced op, seconds.
    pub traced_s: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The run's spans (traced runs only).
    pub trace: Trace,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A named metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// SplitMix64 finalizer: the benchmark's only source of randomness.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// W3C `traceparent` carrying op `i`'s id for `seed`.
pub fn traceparent(seed: u64, i: u64) -> String {
    format!("00-{:016x}{:016x}-{:016x}-01", mix(seed) | 1, i, i + 1)
}

/// Fewest ops in one window of a run's end-to-end statistics: enough that
/// each window supports a p95.
const MIN_WINDOW_OPS: usize = 200;

/// Most windows a run is split into.
const MAX_WINDOWS: usize = 6;

/// The end-to-end metrics of an untraced run.
///
/// The timed ops are split, in op order, into up to six windows of at
/// least 200 ops. The p95 latency is computed per window and reported as
/// the median over windows, so a burst of host contention that covers
/// less than half the run does not move it. A run too short for two
/// windows is one window.
///
/// There is no median latency or throughput: on a shared host both
/// follow how much of a run the host ran fast, and they spread further
/// than the p95 across runs (see README.md).
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let ops = &out.untraced_s;
    let k = (ops.len() / MIN_WINDOW_OPS).clamp(1, MAX_WINDOWS);
    let p95s: Vec<f64> = (0..k)
        .filter_map(|w| {
            let window = &ops[w * ops.len() / k..(w + 1) * ops.len() / k];
            stats::tail(&stats::sorted(window), 0.95)
        })
        .collect();
    // A run too short for a p95 (the pipeline's few passes) reports its
    // median op here rather than an unsupported tail.
    let p95_s = if p95s.len() == k {
        stats::median(&p95s)
    } else {
        stats::median(ops)
    };
    vec![
        Metric::new("setup_s", stats::median(&out.setup_s), "s"),
        Metric::new("op_p95_ms", p95_s * 1e3, "ms"),
    ]
}

/// The overhead of the harness's tracing on one workload: traced versus
/// untraced op median, in percent.
fn trace_overhead_pct(out: &Outcome) -> f64 {
    (stats::median(&out.traced_s) / stats::median(&out.untraced_s) - 1.0) * 100.0
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::PipelineQuick,
        seed: 1,
        seconds: 10.0,
        trace: false,
        jobs: THREADS,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--jobs" => {
                out.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if out.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the requested workload and returns the result line.
fn run(args: &Args) -> std::io::Result<Json> {
    let name = args.workload.name();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread starts, so every thread inherits the pinning.
    let cpu = host::pin_to_one_cpu();
    let host = host::fingerprint(name, args.seed, args.jobs, nproc, cpu);
    println!("host {host}");
    let epoch = Instant::now();
    let plan = |seconds: f64, min_ops: u64, setups: usize| Plan {
        seed: args.seed,
        seconds,
        min_ops,
        setups,
        traced: args.trace,
        jobs: args.jobs,
        epoch,
    };
    let own = plan(
        args.seconds,
        args.workload.min_ops(),
        if args.trace {
            1
        } else {
            args.workload.setups()
        },
    );
    let out = args.workload.run(&own)?;
    if out.untraced_s.is_empty() || (args.trace && out.traced_s.is_empty()) {
        return Err(std::io::Error::other(format!(
            "{name}: no op succeeded ({} attempted)",
            out.attempted
        )));
    }
    println!("digest {name} seed {}: {:016x}", args.seed, out.digest);
    let (mut attempted, mut failed) = (out.attempted, out.failed);
    let metrics = if args.trace {
        // Every traced run reports every layer: the layers this workload
        // does not reach are measured on a short traced slice of the
        // workload that does.
        let overhead = Metric::new("obs.trace_overhead_pct", trace_overhead_pct(&out), "%");
        let Outcome {
            mut layers,
            mut trace,
            ..
        } = out;
        layers.push(overhead);
        for other in Workload::ALL.into_iter().filter(|&w| w != args.workload) {
            let slice = other.run(&plan(0.0, other.slice_ops(), 1))?;
            attempted += slice.attempted;
            failed += slice.failed;
            layers.extend(slice.layers);
            trace.merge(slice.trace);
        }
        let path = spans_path(name, args.seed);
        trace.write_tsv(&path, &host.to_string())?;
        println!("spans {} ({} spans)", path.display(), trace.len());
        layers
    } else {
        end_to_end(&out)
    };
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![("value", Json::Num(m.value)), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    );
    Ok(Json::obj(vec![
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics),
    ]))
}

/// Where a traced run writes its spans.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.tsv"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_ops_cover_every_op_kind_equally() {
        let plan = Plan {
            seed: 1,
            seconds: 0.0,
            min_ops: 0,
            setups: 1,
            traced: true,
            jobs: THREADS,
            epoch: Instant::now(),
        };
        // Each kind (op index modulo a cycle) is traced once in every two
        // cycles: closed-loop pairs cycle every 24 ops, predict kinds every 4.
        for period in [4u64, OP_CYCLE] {
            for kind in 0..period {
                let traced = (0..2 * OP_CYCLE)
                    .filter(|i| i % period == kind)
                    .filter(|&i| plan.is_traced_op(i))
                    .count() as u64;
                assert_eq!(
                    traced,
                    2 * OP_CYCLE / period / 2,
                    "period {period} kind {kind}"
                );
            }
        }
        // The pipeline's first four passes split two traced, two untraced.
        assert_eq!((0..4).filter(|&i| plan.is_traced_op(i)).count(), 2);
    }

    fn outcome(untraced_s: Vec<f64>) -> Outcome {
        Outcome {
            attempted: untraced_s.len() as u64,
            failed: 0,
            digest: 0,
            setup_s: vec![1.0],
            untraced_s,
            traced_s: Vec::new(),
            layers: Vec::new(),
            trace: Trace::default(),
        }
    }

    #[test]
    fn a_burst_in_one_window_leaves_the_run_statistics() {
        let steady = vec![1e-3; 1200];
        let mut burst = steady.clone();
        for latency in &mut burst[..200] {
            *latency = 10e-3;
        }
        assert_eq!(end_to_end(&outcome(burst)), end_to_end(&outcome(steady)));
    }

    #[test]
    fn a_few_passes_report_their_median_as_p95() {
        let m = end_to_end(&outcome(vec![7.0, 9.0, 8.0, 30.0, 10.0]));
        assert_eq!(m[1].value, 9000.0);
    }
}
