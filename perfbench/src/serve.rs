//! `serve-predict` and `serve-closed-loop`: closed-loop HTTP load on the
//! serving daemon from a fixed number of client connections.
//!
//! Set-up trains the model registry and starts the daemon, timed until
//! `/readyz` answers 200. Each client connection sends one request,
//! waits for the whole response, then sends the next; op `i` is a pure
//! function of the workload seed and `i`. Responses are kept as digests
//! (predict) or bodies (closed loop) and checked after the timed phase.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use psca_adapt::{record_trace, ClosedLoopRequest, ExperimentConfig, ModelKind};
use psca_cpu::Mode;
use psca_obs::Json;
use psca_serve::api::{self, ClosedLoopSpec, PredictRequest};
use psca_serve::registry::kind_slug;
use psca_serve::{Daemon, ModelRegistry, ServeConfig};
use psca_workloads::{Archetype, PhaseGenerator};

use crate::spans::{timed, SpanBuf, Trace};
use crate::{http, mix, stats, traceparent, Metric, Outcome, Plan};

/// The registry's models; requests alternate between them.
pub const MODEL_KINDS: [ModelKind; 2] = [ModelKind::BestRf, ModelKind::BestMlp];

/// Ops whose responses feed the workload's output digest: the minimum op
/// count of a serve run, so every run digests the same ops.
pub const DIGEST_OPS: u64 = 200;

/// Upper bound on ops in one timed phase, so a very fast daemon cannot
/// grow the per-op records without limit.
const MAX_OPS: u64 = 2_000_000;

/// Untimed load before each timed phase, seconds.
const WARM_UP_S: f64 = 2.0;

/// How long set-up may wait for `/readyz` to answer 200.
const READY_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Index of the first warm-up op, far above any timed op.
const WARM_UP_FIRST_OP: u64 = 1 << 32;

/// First span id of verification replays, above any client span id.
const VERIFY_SPAN_IDS: u32 = 1_000;

/// Salts separating the seeded streams drawn from one workload seed.
const ROW_SALT: u64 = 0x726f_7773;
const SEED_SALT: u64 = 0x7365_6564;
const HARDENED_SALT: u64 = 0x6861_7264;
const SAMPLE_SALT: u64 = 0x7361_6d70;

/// Which endpoint a serve workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/predict`, one row per request.
    Predict,
    /// `POST /v1/closed-loop` over every archetype × model.
    ClosedLoop,
}

impl Endpoint {
    fn path(self) -> &'static str {
        match self {
            Endpoint::Predict => "/v1/predict",
            Endpoint::ClosedLoop => "/v1/closed-loop",
        }
    }

    /// The daemon's metric key for the endpoint.
    pub fn key(self) -> &'static str {
        match self {
            Endpoint::Predict => "predict",
            Endpoint::ClosedLoop => "closed_loop",
        }
    }
}

/// The registry's training configuration: the quick preset seeded by
/// the workload seed, with `jobs` pinned.
pub fn registry_config(seed: u64, jobs: usize) -> ExperimentConfig {
    ExperimentConfig::builder()
        .seed(seed)
        .jobs(jobs)
        .build()
        .expect("the quick preset with a pinned job count is valid")
}

/// Trains the serving registry (the paper's two deployable models).
pub fn train_registry(seed: u64, jobs: usize) -> ModelRegistry {
    ModelRegistry::train(registry_config(seed, jobs), &MODEL_KINDS)
}

/// Per-model, per-mode input dimensions a predict row must have.
#[derive(Debug, Clone, Copy)]
pub struct Dims([[usize; 2]; 2]);

impl Dims {
    /// Reads the dimensions off a trained registry.
    pub fn of(reg: &ModelRegistry) -> Dims {
        let dim = |kind: ModelKind, mode: Mode| {
            let model = reg.get(kind_slug(kind)).expect("registry holds every kind");
            model.mode_parts(mode).1.input_dim().unwrap_or(1)
        };
        let row = |kind| [dim(kind, Mode::HighPerf), dim(kind, Mode::LowPower)];
        Dims([row(MODEL_KINDS[0]), row(MODEL_KINDS[1])])
    }
}

/// Body of predict op `i`: a single row, alternating model every op and
/// mode every two ops, with features drawn from the seed.
pub fn predict_body(seed: u64, i: u64, dims: &Dims) -> String {
    let model = (i % 2) as usize;
    let mode = ((i / 2) % 2) as usize;
    let mut state = mix(seed ^ ROW_SALT) ^ i;
    let row: Vec<String> = (0..dims.0[model][mode])
        .map(|_| {
            state = mix(state);
            // 53 random bits → [0, 1).
            format!("{}", (state >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect();
    format!(
        r#"{{"model":"{}","mode":"{}","rows":[[{}]]}}"#,
        kind_slug(MODEL_KINDS[model]),
        ["hi", "lo"][mode],
        row.join(",")
    )
}

/// True when closed-loop op `i` asks for the hardened engine: exactly
/// one op in each aligned block of four, at a seeded position.
pub fn is_hardened(seed: u64, i: u64) -> bool {
    mix(seed ^ HARDENED_SALT ^ mix(i / 4)) % 4 == i % 4
}

/// Body of closed-loop op `i`: op `i` walks every archetype × model
/// pair in turn, with a fresh simulation seed per op.
pub fn closed_loop_body(seed: u64, i: u64) -> String {
    let pair = (i % (2 * Archetype::ALL.len() as u64)) as usize;
    let archetype = Archetype::ALL[pair / 2];
    let model = kind_slug(MODEL_KINDS[pair % 2]);
    // Below 2^53 so the seed survives any JSON number parser exactly.
    let op_seed = mix(seed ^ SEED_SALT ^ mix(i)) >> 11;
    format!(
        r#"{{"model":"{model}","archetype":"{archetype:?}","seed":{op_seed},"hardened":{}}}"#,
        is_hardened(seed, i)
    )
}

/// True when closed-loop op `i` is in the verification sample: one op
/// per aligned block of eight, taken from the plain ops of even blocks
/// and the hardened ops of odd blocks, at a seeded position.
pub fn is_sampled(seed: u64, i: u64) -> bool {
    let block = i / 8;
    let want_hardened = block % 2 == 1;
    let candidates: Vec<u64> = (block * 8..block * 8 + 8)
        .filter(|&j| is_hardened(seed, j) == want_hardened)
        .collect();
    candidates[(mix(seed ^ SAMPLE_SALT ^ mix(block)) % candidates.len() as u64) as usize] == i
}

/// What the client kept of one op.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Op index.
    pub idx: u64,
    /// HTTP status; 0 when the exchange itself failed.
    pub status: u16,
    /// Client-observed latency, connect to close.
    pub latency_ns: u64,
    /// FNV-1a digest of the response body.
    pub digest: u64,
}

/// Expected predict body for a request body, computed in-process through
/// the calls the daemon's handler makes.
pub fn expected_predict(
    reg: &ModelRegistry,
    request: &str,
    jobs: usize,
    buf: Option<&mut SpanBuf>,
) -> Option<String> {
    let parsed = PredictRequest::parse(request).ok()?;
    let model = reg.get(&parsed.model)?;
    parsed.check_dims(model).ok()?;
    let scored = timed(buf, 0, "ml.predict", || {
        api::score_rows(model, parsed.mode, &parsed.rows, jobs)
    });
    Some(api::predict_json(&parsed.model, &scored))
}

/// What replaying one closed-loop op in-process produced.
pub struct Replay {
    /// The body the handler renders for it.
    pub body: String,
    /// Instructions the simulator executed (warm-up plus window).
    pub sim_insts: u64,
    /// Host time of the closed-loop call, in nanoseconds.
    pub loop_ns: u64,
}

/// Replays a closed-loop request in-process through the calls the
/// daemon's handler makes and renders the same body.
pub fn replay_closed_loop(
    reg: &ModelRegistry,
    request: &str,
    mut buf: Option<&mut SpanBuf>,
) -> Option<Replay> {
    let spec = ClosedLoopSpec::parse(request).ok()?;
    let model = reg.get(&spec.model)?;
    let cfg = reg.config();
    let (warm, window) = timed(buf.as_deref_mut(), 0, "workloads.trace_gen", || {
        let mut gen = PhaseGenerator::new(spec.archetype.center(), spec.seed);
        let window_insts = spec.windows * model.granularity_insts(cfg.interval_insts);
        record_trace(&mut gen, spec.warm_insts, window_insts)
    });
    let backend = spec.backend.unwrap_or(cfg.backend);
    let mut request =
        ClosedLoopRequest::new(model, &warm, &window, cfg.interval_insts).with_backend(backend);
    if let Some(chaos) = &spec.chaos {
        request = request.with_faults(chaos.clone());
    }
    let mut fields: Vec<(&str, Json)> = vec![
        ("model", spec.model.as_str().into()),
        ("archetype", format!("{:?}", spec.archetype).into()),
        ("seed", spec.seed.into()),
        ("backend", backend.as_str().into()),
    ];
    let t = Instant::now();
    let result = if spec.hardened || spec.chaos.is_some() {
        let out = timed(buf, 0, "adapt.closed_loop_hardened", || {
            request.hardened().run_hardened()
        });
        push_result_fields(&mut fields, &out.result);
        fields.push((
            "degraded_fraction",
            Json::Num(out.degrade.degraded_fraction()),
        ));
        fields.push(("escalations", out.degrade.escalations.into()));
        fields.push(("recoveries", out.degrade.recoveries.into()));
        fields.push(("faults_injected", out.faults.total().into()));
        fields.push(("images_rejected", out.images_rejected.into()));
        out.result
    } else {
        let out = timed(buf, 0, "adapt.closed_loop", || request.run());
        push_result_fields(&mut fields, &out);
        out
    };
    let loop_ns = t.elapsed().as_nanos() as u64;
    Some(Replay {
        body: Json::obj(fields).to_string(),
        sim_insts: warm.len() as u64 + result.instructions,
        loop_ns,
    })
}

fn push_result_fields(fields: &mut Vec<(&str, Json)>, r: &psca_adapt::ClosedLoopResult) {
    fields.push(("windows", (r.modes.len() as u64).into()));
    fields.push(("instructions", r.instructions.into()));
    fields.push(("cycles", r.cycles.into()));
    fields.push(("energy", Json::Num(r.energy)));
    fields.push(("ppw", Json::Num(r.ppw())));
    fields.push(("low_power_residency", Json::Num(r.low_power_residency)));
}

/// What verifying a run's records found.
pub struct Verified {
    /// Ops that failed.
    pub failed: u64,
    /// Spans of the in-process replays (traced runs only).
    pub bufs: Vec<SpanBuf>,
    /// The closed-loop replays.
    pub replays: Vec<Replay>,
}

/// Counts the ops that failed: any non-200 status, any predict body that
/// differs from the in-process result, and any sampled closed-loop body
/// that differs from its in-process replay. Replays run on `jobs`
/// threads.
pub fn verify(
    endpoint: Endpoint,
    plan: &Plan,
    reg: &ModelRegistry,
    dims: &Dims,
    records: &[Record],
    bodies: &BTreeMap<u64, Vec<u8>>,
) -> Verified {
    let seed = plan.seed;
    let chunk = records.len().div_ceil(plan.jobs.max(1)).max(1);
    let parts: Vec<Verified> = std::thread::scope(|s| {
        let handles: Vec<_> = records
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut failed = 0u64;
                    let mut buf = SpanBuf::with_id_base(plan.epoch, VERIFY_SPAN_IDS);
                    let mut replays = Vec::new();
                    for r in part {
                        if r.status != 200 {
                            failed += 1;
                            continue;
                        }
                        buf.begin_op(r.idx);
                        // Replays run after the timed phase. A traced run spans
                        // the replays of traced ops and every closed-loop
                        // replay, so each engine's layer has samples even in
                        // a short run.
                        let spans = (plan.traced
                            && (endpoint == Endpoint::ClosedLoop || plan.is_traced_op(r.idx)))
                        .then_some(&mut buf);
                        match endpoint {
                            Endpoint::Predict => {
                                let request = predict_body(seed, r.idx, dims);
                                let ok = expected_predict(reg, &request, plan.jobs, spans)
                                    .is_some_and(|b| psca_exec::fnv1a(b.as_bytes()) == r.digest);
                                failed += u64::from(!ok);
                            }
                            Endpoint::ClosedLoop => {
                                if !is_sampled(seed, r.idx) {
                                    continue;
                                }
                                let request = closed_loop_body(seed, r.idx);
                                match replay_closed_loop(reg, &request, spans) {
                                    Some(rep) => {
                                        let ok = bodies.get(&r.idx).map(Vec::as_slice)
                                            == Some(rep.body.as_bytes());
                                        failed += u64::from(!ok);
                                        replays.push(rep);
                                    }
                                    None => failed += 1,
                                }
                            }
                        }
                    }
                    Verified {
                        failed,
                        bufs: vec![buf],
                        replays,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    let mut all = Verified {
        failed: 0,
        bufs: Vec::new(),
        replays: Vec::new(),
    };
    for part in parts {
        all.failed += part.failed;
        all.bufs.extend(part.bufs);
        all.replays.extend(part.replays);
    }
    all
}

/// Trains a registry, starts the daemon and waits until `/readyz`
/// answers 200. Returns the daemon, its address, the dimensions of its
/// models, and the set-up time in seconds.
fn start_daemon(plan: &Plan) -> std::io::Result<(Daemon, SocketAddr, Dims, f64)> {
    let t = Instant::now();
    let reg = train_registry(plan.seed, plan.jobs);
    let dims = Dims::of(&reg);
    let config = ServeConfig {
        workers: plan.jobs,
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config, reg)?;
    let addr = daemon.local_addr();
    while http::get(addr, "/readyz")?.status != 200 {
        if t.elapsed() > READY_TIMEOUT {
            return Err(std::io::Error::other("daemon never reported ready"));
        }
        std::thread::yield_now();
    }
    Ok((daemon, addr, dims, t.elapsed().as_secs_f64()))
}

/// One stretch of closed-loop load.
struct Phase {
    /// Index of the phase's first op.
    first: u64,
    /// Least time the phase lasts.
    seconds: f64,
    /// Least number of ops the phase sends.
    min_ops: u64,
    /// Whether traced ops record spans.
    traced: bool,
}

/// What a phase's clients kept.
struct Driven {
    /// Every op, ordered by index.
    records: Vec<Record>,
    /// Bodies of the closed-loop ops sampled for verification.
    bodies: BTreeMap<u64, Vec<u8>>,
    /// The clients' spans.
    bufs: Vec<SpanBuf>,
}

/// Drives one phase: `plan.jobs` client connections in a closed loop
/// until the phase's time has passed and its least op count was sent.
fn drive(endpoint: Endpoint, plan: &Plan, phase: &Phase, addr: SocketAddr, dims: &Dims) -> Driven {
    let next = AtomicU64::new(phase.first);
    let start = Instant::now();
    let per_thread: Vec<Driven> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.jobs.max(1))
            .map(|_| {
                let next = &next;
                s.spawn(move || client(endpoint, plan, phase, addr, dims, next, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut driven = Driven {
        records: Vec::new(),
        bodies: BTreeMap::new(),
        bufs: Vec::new(),
    };
    for part in per_thread {
        driven.records.extend(part.records);
        driven.bodies.extend(part.bodies);
        driven.bufs.extend(part.bufs);
    }
    driven.records.sort_by_key(|r| r.idx);
    driven
}

/// One client connection's loop: take the next op index, send it, wait
/// for the whole response, keep what verification needs.
fn client(
    endpoint: Endpoint,
    plan: &Plan,
    phase: &Phase,
    addr: SocketAddr,
    dims: &Dims,
    next: &AtomicU64,
    start: Instant,
) -> Driven {
    let mut records = Vec::new();
    let mut bodies = BTreeMap::new();
    let mut buf = SpanBuf::new(plan.epoch);
    loop {
        let sent = next.load(Ordering::Relaxed) - phase.first;
        if sent >= MAX_OPS
            || (sent >= phase.min_ops && start.elapsed().as_secs_f64() >= phase.seconds)
        {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        let traced = phase.traced && plan.is_traced_op(i);
        let body = match endpoint {
            Endpoint::Predict => predict_body(plan.seed, i, dims),
            Endpoint::ClosedLoop => closed_loop_body(plan.seed, i),
        };
        let tp = traced.then(|| traceparent(plan.seed, i));
        let request = http::encode("POST", endpoint.path(), &body, tp.as_deref());
        let record = match http::exchange(addr, &request) {
            Ok((resp, st)) => {
                if traced {
                    buf.begin_op(i);
                    let root = buf.reserve();
                    buf.leaf(root, "serve.connect", st.start, st.connected);
                    buf.leaf(root, "serve.ttfb", st.connected, st.first_byte);
                    buf.leaf(root, "serve.read", st.first_byte, st.done);
                    let name = match endpoint {
                        Endpoint::Predict => "serve.predict",
                        Endpoint::ClosedLoop => "serve.closed_loop",
                    };
                    buf.record(root, 0, name, st.start, st.done);
                }
                let digest = psca_exec::fnv1a(&resp.body);
                if endpoint == Endpoint::ClosedLoop && is_sampled(plan.seed, i) {
                    bodies.insert(i, resp.body);
                }
                Record {
                    idx: i,
                    status: resp.status,
                    latency_ns: st.done.duration_since(st.start).as_nanos() as u64,
                    digest,
                }
            }
            Err(_) => Record {
                idx: i,
                status: 0,
                latency_ns: 0,
                digest: 0,
            },
        };
        records.push(record);
    }
    Driven {
        records,
        bodies,
        bufs: vec![buf],
    }
}

/// The value of the sample line `series` in a `/metrics` scrape.
fn scrape(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse::<f64>().ok())
}

/// The exact mean of a `/metrics` summary, from its `_sum` and `_count`.
fn scrape_mean(text: &str, metric: &str) -> f64 {
    match (
        scrape(text, &format!("{metric}_sum")),
        scrape(text, &format!("{metric}_count")),
    ) {
        (Some(sum), Some(n)) if n > 0.0 => sum / n,
        _ => 0.0,
    }
}

/// Runs the workload under `plan`.
///
/// # Errors
/// Fails when the daemon cannot bind or never reports ready.
pub fn run(endpoint: Endpoint, plan: &Plan) -> std::io::Result<Outcome> {
    let mut setup_s = Vec::new();
    let mut live: Option<(Daemon, SocketAddr, Dims)> = None;
    for _ in 0..plan.setups.max(1) {
        if let Some((daemon, ..)) = live.take() {
            Daemon::shutdown(daemon);
        }
        let (daemon, addr, dims, secs) = start_daemon(plan)?;
        setup_s.push(secs);
        live = Some((daemon, addr, dims));
    }
    let (daemon, addr, dims) = live.expect("at least one set-up ran");
    // Untimed load first: the daemon's first few thousand requests run
    // faster than its steady state.
    let warm_up = Phase {
        first: WARM_UP_FIRST_OP,
        seconds: WARM_UP_S,
        min_ops: 0,
        traced: false,
    };
    let warmed = drive(endpoint, plan, &warm_up, addr, &dims).records;
    let warm_failed = warmed.iter().filter(|r| r.status != 200).count() as u64;
    if plan.traced {
        // Server-side histograms then cover the timed phase only.
        psca_obs::reset_metrics();
    }
    let timed_phase = Phase {
        first: 0,
        seconds: plan.seconds,
        min_ops: plan.min_ops,
        traced: plan.traced,
    };
    let Driven {
        records,
        bodies,
        mut bufs,
    } = drive(endpoint, plan, &timed_phase, addr, &dims);
    let metrics_text = if plan.traced {
        let scraped = http::get(addr, "/metrics")?;
        String::from_utf8_lossy(&scraped.body).into_owned()
    } else {
        String::new()
    };
    daemon.shutdown();

    // Verification, after the timed phase, against a freshly trained
    // registry (training is deterministic for a seed).
    let reg = train_registry(plan.seed, plan.jobs);
    let Verified {
        failed,
        bufs: verify_bufs,
        replays,
    } = verify(endpoint, plan, &reg, &dims, &records, &bodies);
    bufs.extend(verify_bufs);

    let mut digest = psca_exec::Digest::new();
    for r in records.iter().take_while(|r| r.idx < DIGEST_OPS) {
        digest.write_u64(r.digest);
    }
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    for r in records.iter().filter(|r| r.status == 200) {
        let latency_s = r.latency_ns as f64 / 1e9;
        if plan.is_traced_op(r.idx) {
            traced_s.push(latency_s);
        } else {
            untraced_s.push(latency_s);
        }
    }
    let mut trace = Trace::default();
    for b in bufs {
        trace.absorb(b);
    }
    let layers = if plan.traced {
        let ok: Vec<f64> = untraced_s.iter().chain(&traced_s).copied().collect();
        let client_mean_us = ok.iter().sum::<f64>() / ok.len().max(1) as f64 * 1e6;
        layers(endpoint, &trace, &metrics_text, client_mean_us, &replays)
    } else {
        Vec::new()
    };
    Ok(Outcome {
        attempted: (warmed.len() + records.len()) as u64,
        failed: warm_failed + failed,
        digest: digest.finish(),
        setup_s,
        untraced_s,
        traced_s,
        layers,
        trace,
    })
}

/// Per-layer metrics of a traced serve run: client-side phases from the
/// harness's spans, server-side queue wait and handler time from the
/// daemon's `/metrics`, and in-process replays of the handler's calls.
///
/// The daemon's quantiles are histogram bucket edges an eighth of an
/// octave apart, so handler time is its exact mean (`_sum / _count`), and
/// transport is the client's mean latency minus the mean handler time and
/// mean queue wait: means add up, medians do not.
fn layers(
    endpoint: Endpoint,
    trace: &Trace,
    metrics: &str,
    client_mean_us: f64,
    replays: &[Replay],
) -> Vec<Metric> {
    let durs = trace.durations();
    let p50 = |span: &str, scale: f64| durs.get(span).map_or(0.0, |v| stats::median(v) / scale);
    let key = endpoint.key();
    let handler = scrape_mean(metrics, &format!("serve_{key}_latency_us"));
    let wait = |q: &str| scrape(metrics, &format!("serve_queue_wait_us{{quantile=\"{q}\"}}"));
    let mut out = vec![
        Metric::new(
            &format!("serve.connect_us.{key}"),
            p50("serve.connect", 1e3),
            "us",
        ),
        Metric::new(
            &format!("serve.ttfb_us.{key}"),
            p50("serve.ttfb", 1e3),
            "us",
        ),
        Metric::new(
            &format!("serve.total_us.{key}"),
            p50(&format!("serve.{key}"), 1e3),
            "us",
        ),
        Metric::new(&format!("serve.handler_mean_us.{key}"), handler, "us"),
        Metric::new(
            &format!("serve.queue_wait_p50_us.{key}"),
            wait("0.5").unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            &format!("serve.queue_wait_p95_us.{key}"),
            wait("0.95").unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            &format!("serve.transport_mean_us.{key}"),
            client_mean_us - handler - scrape_mean(metrics, "serve_queue_wait_us"),
            "us",
        ),
    ];
    match endpoint {
        Endpoint::Predict => {
            out.push(Metric::new("ml.predict_us", p50("ml.predict", 1e3), "us"));
        }
        Endpoint::ClosedLoop => {
            out.push(Metric::new(
                "workloads.trace_gen_ms",
                p50("workloads.trace_gen", 1e6),
                "ms",
            ));
            out.push(Metric::new(
                "adapt.closed_loop_ms",
                p50("adapt.closed_loop", 1e6),
                "ms",
            ));
            out.push(Metric::new(
                "adapt.closed_loop_hardened_ms",
                p50("adapt.closed_loop_hardened", 1e6),
                "ms",
            ));
            let insts: u64 = replays.iter().map(|r| r.sim_insts).sum();
            let ns: u64 = replays.iter().map(|r| r.loop_ns).sum();
            let per_op: Vec<f64> = replays.iter().map(|r| r.sim_insts as f64).collect();
            out.push(Metric::new(
                "cpu.sim_minsts_per_s",
                if ns == 0 {
                    0.0
                } else {
                    insts as f64 * 1e3 / ns as f64
                },
                "Minst/s",
            ));
            out.push(Metric::new(
                "cpu.sim_insts",
                if per_op.is_empty() {
                    0.0
                } else {
                    stats::median(&per_op)
                },
                "count",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> Dims {
        Dims([[12, 12], [12, 12]])
    }

    #[test]
    fn op_sequences_follow_the_seed() {
        let d = dims();
        let predict = |seed| {
            (0..64)
                .map(|i| predict_body(seed, i, &d))
                .collect::<Vec<_>>()
        };
        let closed = |seed| {
            (0..64)
                .map(|i| closed_loop_body(seed, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(predict(5), predict(5));
        assert_ne!(predict(5), predict(6));
        assert_eq!(closed(5), closed(5));
        assert_ne!(closed(5), closed(6));
        // Every request parses as the daemon parses it.
        for body in predict(5) {
            let req = PredictRequest::parse(&body).expect("predict body parses");
            assert_eq!(req.rows.len(), 1);
            assert_eq!(req.rows[0].len(), 12);
        }
        for body in closed(5) {
            ClosedLoopSpec::parse(&body).expect("closed-loop body parses");
        }
    }

    #[test]
    fn closed_loop_mix_is_one_hardened_in_four_and_sampled_one_in_eight() {
        for seed in [1u64, 2, 3] {
            for block in 0..50u64 {
                let hardened = (block * 4..block * 4 + 4)
                    .filter(|&i| is_hardened(seed, i))
                    .count();
                assert_eq!(hardened, 1);
            }
            for block in 0..50u64 {
                let sampled: Vec<u64> = (block * 8..block * 8 + 8)
                    .filter(|&i| is_sampled(seed, i))
                    .collect();
                assert_eq!(sampled.len(), 1);
                assert_eq!(is_hardened(seed, sampled[0]), block % 2 == 1);
            }
        }
        // Every archetype × model pair appears in each 24 ops.
        let pairs: std::collections::BTreeSet<(String, String)> = (0..24)
            .map(|i| {
                let spec = ClosedLoopSpec::parse(&closed_loop_body(9, i)).unwrap();
                (format!("{:?}", spec.archetype), spec.model)
            })
            .collect();
        assert_eq!(pairs.len(), 24);
    }

    fn test_plan() -> Plan {
        Plan {
            seed: 3,
            seconds: 0.0,
            min_ops: 0,
            setups: 1,
            traced: false,
            jobs: 2,
            epoch: Instant::now(),
        }
    }

    #[test]
    fn verifier_fails_a_corrupted_predict_body() {
        let plan = test_plan();
        let reg = train_registry(plan.seed, plan.jobs);
        let dims = Dims::of(&reg);
        let mut records: Vec<Record> = (0..8)
            .map(|i| {
                let body = expected_predict(&reg, &predict_body(plan.seed, i, &dims), 2, None)
                    .expect("valid request");
                Record {
                    idx: i,
                    status: 200,
                    latency_ns: 1,
                    digest: psca_exec::fnv1a(body.as_bytes()),
                }
            })
            .collect();
        let none = BTreeMap::new();
        assert_eq!(
            verify(Endpoint::Predict, &plan, &reg, &dims, &records, &none).failed,
            0
        );
        // One flipped body byte and one non-200 answer: two failed ops.
        let mut body = expected_predict(&reg, &predict_body(plan.seed, 3, &dims), 2, None).unwrap();
        body.replace_range(body.len() - 3..body.len() - 2, "X");
        records[3].digest = psca_exec::fnv1a(body.as_bytes());
        records[5].status = 503;
        assert_eq!(
            verify(Endpoint::Predict, &plan, &reg, &dims, &records, &none).failed,
            2
        );
    }

    #[test]
    fn verifier_fails_a_corrupted_closed_loop_body() {
        let plan = test_plan();
        let reg = train_registry(plan.seed, plan.jobs);
        let dims = Dims::of(&reg);
        // The first block's sampled op, answered correctly, then corrupted.
        let idx = (0..8).find(|&i| is_sampled(plan.seed, i)).unwrap();
        let good = replay_closed_loop(&reg, &closed_loop_body(plan.seed, idx), None)
            .expect("valid request")
            .body;
        let check = |body: String| {
            let record = Record {
                idx,
                status: 200,
                latency_ns: 1,
                digest: psca_exec::fnv1a(body.as_bytes()),
            };
            let bodies = BTreeMap::from([(idx, body.into_bytes())]);
            verify(Endpoint::ClosedLoop, &plan, &reg, &dims, &[record], &bodies).failed
        };
        assert_eq!(check(good.clone()), 0);
        assert_eq!(check(good.replace("\"cycles\":", "\"cycles\":9")), 1);
    }
}
