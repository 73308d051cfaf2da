//! `pipeline-quick`: the paper's corpus → train → evaluate pipeline.
//!
//! Set-up simulates the HDTR and SPEC corpora; one op is one pass of all
//! twenty experiments over them, rendered exactly as `repro all` prints
//! them. Each pass's rendered output is digested after the timed phase
//! and a pass whose digest differs from the run's first pass fails.

use std::time::Instant;

use psca_adapt::experiments::{ablations, chaos, fig10, fig4, fig5, fig6, fig7, fig8, fig9};
use psca_adapt::experiments::{table1, table2, table3, table4, table5, table6};
use psca_adapt::{CorpusTelemetry, ExperimentConfig};
use psca_bench::chart::bar_chart;
use psca_bench::EXPERIMENTS;
use psca_faults::ChaosSpec;

use crate::spans::{timed, SpanBuf, Trace};
use crate::{host, stats, Metric, Outcome, Plan, SETUP_OP};

/// The pass's configuration: the quick preset seeded by the workload
/// seed, with `jobs` pinned and the sweep cache off.
pub fn config(seed: u64, jobs: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::builder()
        .seed(seed)
        .jobs(jobs)
        .build()
        .expect("the quick preset with a pinned job count is valid");
    cfg.sweep_cache = None;
    cfg
}

/// The simulated corpora every pass reads.
pub struct Corpora {
    hdtr: CorpusTelemetry,
    spec: CorpusTelemetry,
}

fn build_corpora(cfg: &ExperimentConfig, mut buf: Option<&mut SpanBuf>) -> Corpora {
    let hdtr = timed(buf.as_deref_mut(), 0, "corpus.hdtr", || {
        CorpusTelemetry::hdtr(cfg)
    });
    let spec = timed(buf, 0, "corpus.spec", || CorpusTelemetry::spec(cfg));
    Corpora { hdtr, spec }
}

/// One pass: every experiment in `EXPERIMENTS` order, rendered as
/// `repro all` prints it to stdout. With `buf`, each experiment is a
/// span `exp.<id>` under `parent`.
pub fn pass(
    cfg: &ExperimentConfig,
    c: &Corpora,
    mut buf: Option<&mut SpanBuf>,
    parent: u32,
) -> String {
    let chaos_spec = ChaosSpec::default_chaos();
    let mut out = String::new();
    for id in EXPERIMENTS {
        let text = timed(buf.as_deref_mut(), parent, format!("exp.{id}"), || {
            render(id, cfg, c, &chaos_spec)
        });
        out.push_str(&text);
        out.push('\n');
    }
    out
}

fn render(id: &str, cfg: &ExperimentConfig, c: &Corpora, chaos_spec: &ChaosSpec) -> String {
    let (hdtr, spec) = (&c.hdtr, &c.spec);
    let pct = |digits: usize| move |v: f64| format!("{:.digits$}%", 100.0 * v);
    match id {
        "table1" => table1::run(cfg).to_string(),
        "table2" => table2::run(cfg).to_string(),
        "table3" => table3::run(cfg, hdtr).to_string(),
        "table4" => table4::run(cfg, hdtr).to_string(),
        "table5" => table5::run(cfg, hdtr, spec).to_string(),
        "table6" => table6::run(cfg, hdtr, spec).to_string(),
        "fig4" => fig4::run(cfg, hdtr).to_string(),
        "fig5" => fig5::run(cfg, hdtr).to_string(),
        "fig6" => fig6::run(cfg, hdtr).to_string(),
        "fig7" => {
            let f7 = fig7::run(cfg, spec);
            let chart = bar_chart("ideal low-power residency", &f7.per_benchmark, 40, pct(1));
            format!("{f7}\n{chart}")
        }
        "fig8" => {
            let f8 = fig8::run(cfg, hdtr, spec);
            let rows = |f: fn(&fig8::Fig8Row) -> f64| -> Vec<(String, f64)> {
                f8.rows
                    .iter()
                    .map(|r| (r.kind.name().to_string(), f(r)))
                    .collect()
            };
            let ppw = bar_chart("PPW gain", &rows(|r| r.overall.ppw_gain), 40, pct(1));
            let rsv = bar_chart("RSV", &rows(|r| r.overall.rsv), 40, pct(2));
            format!("{f8}\n{ppw}\n{rsv}")
        }
        "fig9" => {
            let f9 = fig9::run(cfg, hdtr, spec);
            let rsv: Vec<(String, f64)> = f9
                .rows
                .iter()
                .map(|r| (r.name.clone(), r.charstar.rsv))
                .collect();
            let chart = bar_chart(
                "CHARSTAR per-benchmark RSV (the blindspot exhibit)",
                &rsv,
                40,
                pct(1),
            );
            format!("{f9}\n{chart}")
        }
        "fig10" => fig10::run(cfg, hdtr, spec).to_string(),
        "ablate-steering" => ablations::steering(cfg).to_string(),
        "ablate-guardrail" => ablations::guardrail(cfg, hdtr, spec).to_string(),
        "ablate-width" => ablations::cluster_width(cfg).to_string(),
        "ablate-dvfs" => ablations::dvfs(cfg, spec).to_string(),
        "ablate-horizon" => {
            ablations::format_points("prediction horizon", &ablations::horizon(cfg, hdtr))
        }
        "ablate-normalization" => ablations::format_points(
            "counter normalization",
            &ablations::normalization(cfg, hdtr),
        ),
        "chaos-sweep" => chaos::chaos_sweep(cfg, chaos_spec).to_string(),
        other => unreachable!("EXPERIMENTS lists unknown experiment {other}"),
    }
}

/// Runs the workload under `plan`.
pub fn run(plan: &Plan) -> Outcome {
    let cfg = config(plan.seed, plan.jobs);
    let mut buf = SpanBuf::new(plan.epoch);
    let mut setup_s = Vec::new();
    let mut corpora = None;
    for rep in 0..plan.setups.max(1) {
        // The previous corpora are dropped before the next build so peak
        // memory holds one set.
        drop(corpora.take());
        buf.begin_op(SETUP_OP + rep as u64);
        let t = Instant::now();
        corpora = Some(build_corpora(&cfg, plan.traced.then_some(&mut buf)));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let corpora = corpora.expect("at least one set-up ran");

    let mut outputs = Vec::new();
    let (mut untraced_s, mut traced_s, mut cpu_per_wall) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0u64;
    while i < plan.min_ops || start.elapsed().as_secs_f64() < plan.seconds {
        let traced = plan.is_traced_op(i);
        buf.begin_op(i);
        let root = buf.reserve();
        let (cpu0, t0) = (host::cpu_seconds(), Instant::now());
        let text = pass(&cfg, &corpora, traced.then_some(&mut buf), root);
        let t1 = Instant::now();
        let wall = t1.duration_since(t0).as_secs_f64();
        if traced {
            buf.record(root, 0, "pipeline.pass", t0, t1);
            cpu_per_wall.push((host::cpu_seconds() - cpu0) / wall);
            traced_s.push(wall);
        } else {
            untraced_s.push(wall);
        }
        eprintln!("[perfbench] pipeline pass {i}: {wall:.3} s");
        outputs.push(text);
        i += 1;
    }

    let mut layers = Vec::new();
    if plan.traced {
        layers.push(Metric::new(
            "exec.cpu_per_wall",
            stats::median(&cpu_per_wall),
            "cpu_s/s",
        ));
    }

    // Verification, after the timed phase: every pass must render the
    // same bytes as the first.
    let digests: Vec<u64> = outputs
        .iter()
        .map(|o| psca_exec::fnv1a(o.as_bytes()))
        .collect();
    let failed = digests.iter().filter(|&&d| d != digests[0]).count() as u64;
    let mut trace = Trace::default();
    trace.absorb(buf);
    if plan.traced {
        layers.extend(span_layers(&trace));
    }
    Outcome {
        attempted: outputs.len() as u64,
        failed,
        digest: digests[0],
        setup_s,
        untraced_s,
        traced_s,
        layers,
        trace,
    }
}

/// Per-layer metrics read from the pipeline's spans: the p50 over ops
/// of each layer's self time, in milliseconds.
fn span_layers(trace: &Trace) -> Vec<Metric> {
    let selfs = trace.self_times();
    let p50_ms = |span: &str| selfs.get(span).map_or(0.0, |v| stats::median(v) / 1e6);
    let mut out = vec![
        Metric::new("corpus.hdtr_ms", p50_ms("corpus.hdtr"), "ms"),
        Metric::new("corpus.spec_ms", p50_ms("corpus.spec"), "ms"),
    ];
    for id in EXPERIMENTS {
        out.push(Metric::new(
            &format!("exp.{id}_ms"),
            p50_ms(&format!("exp.{id}")),
            "ms",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_follows_the_seed_and_pins_jobs() {
        let a = config(11, 2);
        assert_eq!(a.seed, 11);
        assert_eq!(a.jobs, 2);
        assert!(a.sweep_cache.is_none());
        assert_eq!(config(11, 2).seed, a.seed);
        assert_ne!(config(12, 2).seed, a.seed);
        assert_ne!(
            config(11, 2).sub_seed("hdtr"),
            config(12, 2).sub_seed("hdtr")
        );
    }
}
