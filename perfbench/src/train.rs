//! `train-zoo`: the model training that dominates the pipeline, one fit
//! of each model family per op.
//!
//! Set-up simulates the HDTR corpus, the training corpus of every model;
//! one op fits all five `ModelKind`s on it through `adapt::zoo::train`,
//! as `ModelRegistry::train` and the pipeline's experiments do. Every
//! op's models are kept and digested after the timed phase, and an op
//! whose digest differs from the first op's fails.

use std::time::Instant;

use psca_adapt::{zoo, CorpusTelemetry, ModelKind, TrainedAdaptModel};
use psca_serve::registry::kind_slug;

use crate::pipeline::config;
use crate::spans::{timed, SpanBuf, Trace};
use crate::{stats, Metric, Outcome, Plan, SETUP_OP};

/// Every model family, fitted in this order by each op.
pub const MODEL_KINDS: [ModelKind; 5] = [
    ModelKind::BestRf,
    ModelKind::BestMlp,
    ModelKind::Charstar,
    ModelKind::SrchFine,
    ModelKind::SrchCoarse,
];

/// One op: every model family fitted on `hdtr`. With `buf`, each fit is
/// a span `ml.train.<slug>` under `parent`.
fn fit_all(
    cfg: &psca_adapt::ExperimentConfig,
    hdtr: &CorpusTelemetry,
    mut buf: Option<&mut SpanBuf>,
    parent: u32,
) -> Vec<TrainedAdaptModel> {
    MODEL_KINDS
        .iter()
        .map(|&kind| {
            let name = format!("ml.train.{}", kind_slug(kind));
            timed(buf.as_deref_mut(), parent, name, || {
                zoo::train(kind, hdtr, cfg)
            })
        })
        .collect()
}

/// Digest of one op's models: FNV-1a over their `Debug` rendering, which
/// spells out every featurizer, weight, threshold and granularity.
pub fn digest(models: &[TrainedAdaptModel]) -> u64 {
    psca_exec::fnv1a(format!("{models:?}").as_bytes())
}

/// Runs the workload under `plan`.
pub fn run(plan: &Plan) -> Outcome {
    let cfg = config(plan.seed, plan.jobs);
    let mut buf = SpanBuf::new(plan.epoch);
    let mut setup_s = Vec::new();
    let mut hdtr = None;
    for rep in 0..plan.setups.max(1) {
        drop(hdtr.take());
        buf.begin_op(SETUP_OP + rep as u64);
        let t = Instant::now();
        hdtr = Some(timed(
            plan.traced.then_some(&mut buf),
            0,
            "train.corpus.hdtr",
            || CorpusTelemetry::hdtr(&cfg),
        ));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let hdtr = hdtr.expect("at least one set-up ran");

    let mut models = Vec::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0u64;
    while i < plan.min_ops || start.elapsed().as_secs_f64() < plan.seconds {
        let traced = plan.is_traced_op(i);
        buf.begin_op(i);
        let root = buf.reserve();
        let t0 = Instant::now();
        let fitted = fit_all(&cfg, &hdtr, traced.then_some(&mut buf), root);
        let t1 = Instant::now();
        let latency_s = t1.duration_since(t0).as_secs_f64();
        if traced {
            buf.record(root, 0, "train.op", t0, t1);
            traced_s.push(latency_s);
        } else {
            untraced_s.push(latency_s);
        }
        models.push(fitted);
        i += 1;
    }

    // Verification, after the timed phase: every op must fit the same
    // models as the first.
    let digests: Vec<u64> = models.iter().map(|m| digest(m)).collect();
    let failed = digests.iter().filter(|&&d| d != digests[0]).count() as u64;
    let mut trace = Trace::default();
    trace.absorb(buf);
    let layers = if plan.traced {
        span_layers(&trace)
    } else {
        Vec::new()
    };
    Outcome {
        attempted: models.len() as u64,
        failed,
        digest: digests[0],
        setup_s,
        untraced_s,
        traced_s,
        layers,
        trace,
    }
}

/// Per-layer metrics read from the fits' spans: the p50 over ops of each
/// model family's fit, in milliseconds.
fn span_layers(trace: &Trace) -> Vec<Metric> {
    let selfs = trace.self_times();
    MODEL_KINDS
        .iter()
        .map(|&kind| {
            let span = format!("ml.train.{}", kind_slug(kind));
            let p50_ms = selfs.get(&span).map_or(0.0, |v| stats::median(v) / 1e6);
            Metric::new(&format!("{span}_ms"), p50_ms, "ms")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_repeat_for_a_seed_and_follow_it() {
        let fit = |seed| {
            let cfg = config(seed, 1);
            let hdtr = CorpusTelemetry::hdtr(&cfg);
            digest(&fit_all(&cfg, &hdtr, None, 0))
        };
        let a = fit(3);
        assert_eq!(fit(3), a);
        assert_ne!(fit(4), a);
    }
}
