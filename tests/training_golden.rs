//! Golden training contract: every trained model is pinned bit for bit.
//!
//! Each value below is FNV-1a over a model's `Debug` rendering (weights,
//! biases, optimizer state, thresholds, featurizers), every MLP weight,
//! and for the kernel fits the exact bits of the predictions. A training-kernel change that keeps
//! the floating-point operations and their order keeps every value; any
//! change to arithmetic, accumulation order or RNG consumption moves at
//! least one. Changing a value here needs a stated reason in CHANGES.md.

use psca::adapt::{
    collect_paired, zoo, CorpusTelemetry, ExperimentConfig, ModelKind, TrainedAdaptModel,
};
use psca::exec::fnv1a;
use psca::ml::{Dataset, LogisticRegression, Matrix, Mlp, MlpConfig};
use psca::uc::FirmwareModel;
use psca::workloads::{Archetype, PhaseGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Six applications (so the calibration split has applications on both
/// sides) of 40 intervals (so coarse SRCH windows hold several rows).
fn corpus() -> CorpusTelemetry {
    let archetypes = [
        Archetype::DepChain,
        Archetype::ScalarIlp,
        Archetype::MemBound,
        Archetype::Balanced,
        Archetype::Branchy,
        Archetype::SimdKernel,
    ];
    let traces = archetypes
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let mut gen = PhaseGenerator::new(a.center(), 40 + i as u64);
            collect_paired(&mut gen, 2_000, 40, 2_000, i as u32, &format!("{a:?}"), 1)
        })
        .collect();
    CorpusTelemetry { traces }
}

/// `n` rows of `dim` features, about `zero_frac` of them exactly zero,
/// labelled by a noisy linear rule.
fn dataset(n: usize, dim: usize, zero_frac: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    let mut flat = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    let mut groups = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f64> = (0..dim)
            .map(|_| {
                if rng.gen::<f64>() < zero_frac {
                    0.0
                } else {
                    rng.gen::<f64>() * 3.0 - 1.0
                }
            })
            .collect();
        let score: f64 = row.iter().zip(&w).map(|(x, w)| x * w).sum();
        labels.push((score + rng.gen::<f64>() - 0.5 > 0.0) as u8);
        groups.push((i % 5) as u32);
        flat.extend(row);
    }
    Dataset::new(Matrix::from_vec(n, dim, flat), labels, groups)
}

/// An MLP's every weight and bias. `Debug` of a `Matrix` elides rows
/// past the eighth (CHARSTAR has ten filters), so rows are spelled out.
fn mlp_rows(mlp: &Mlp) -> String {
    let mut text = String::new();
    for l in 0..mlp.num_layers() {
        let (w, b) = mlp.layer_weights(l);
        for r in 0..w.rows() {
            text += &format!("{:?}", w.row(r));
        }
        text += &format!("{b:?}");
    }
    text
}

fn model_digest(model: &TrainedAdaptModel) -> u64 {
    let mut text = format!("{model:?}");
    for fw in [&model.fw_hi, &model.fw_lo] {
        if let FirmwareModel::Mlp(mlp) = fw {
            text += &mlp_rows(mlp);
        }
    }
    fnv1a(text.as_bytes())
}

/// Digest of an MLP's every parameter and of its outputs on the
/// training rows.
fn mlp_digest(mlp: &Mlp, data: &Dataset) -> u64 {
    let mut text = format!("{mlp:?}") + &mlp_rows(mlp);
    for i in 0..data.len() {
        text += &format!("{:x}", mlp.predict_proba(data.sample(i).0).to_bits());
    }
    fnv1a(text.as_bytes())
}

fn lr_digest(lr: &LogisticRegression, data: &Dataset) -> u64 {
    let mut text = format!("{lr:?}");
    for i in 0..data.len() {
        text += &format!("{:x}", lr.predict_proba(data.sample(i).0).to_bits());
    }
    fnv1a(text.as_bytes())
}

#[test]
fn zoo_models_match_golden_digests() {
    let corpus = corpus();
    let cfg = ExperimentConfig::quick();
    let golden = [
        (ModelKind::BestRf, 4922583344746832480u64),
        (ModelKind::BestMlp, 17784975275672568959),
        (ModelKind::Charstar, 4418995323728061931),
        (ModelKind::SrchFine, 12243197822967371784),
        (ModelKind::SrchCoarse, 1001820122869600207),
    ];
    let got: Vec<(ModelKind, u64)> = golden
        .iter()
        .map(|&(kind, _)| (kind, model_digest(&zoo::train(kind, &corpus, &cfg))))
        .collect();
    assert_eq!(got, golden, "zoo::train output moved");
}

#[test]
fn mlp_fits_match_golden_digests() {
    let cases = [
        (
            "best_mlp",
            MlpConfig::best_mlp(),
            12,
            15707619491537079321u64,
        ),
        ("charstar", MlpConfig::charstar(), 8, 8933337236797207224),
    ];
    let got: Vec<(&str, u64)> = cases
        .iter()
        .map(|(name, cfg, dim, _)| {
            // 300 rows: the last minibatch of each epoch is a partial one.
            let data = dataset(300, *dim, 0.2, 11);
            (*name, mlp_digest(&Mlp::fit(cfg, &data, 5), &data))
        })
        .collect();
    let want: Vec<(&str, u64)> = cases.iter().map(|c| (c.0, c.3)).collect();
    assert_eq!(got, want, "Mlp::fit output moved");
}

#[test]
fn logistic_fits_match_golden_digests() {
    // A dense dataset and a histogram-like one that is mostly exact zeros.
    let cases = [
        ("dense", 0.0, 17350453857678320489u64),
        ("sparse", 0.85, 10263810165014739191),
    ];
    let got: Vec<(&str, u64)> = cases
        .iter()
        .map(|&(name, zero_frac, _)| {
            let data = dataset(400, 150, zero_frac, 23);
            (
                name,
                lr_digest(&LogisticRegression::fit(&data, 1e-4, 150), &data),
            )
        })
        .collect();
    let want: Vec<(&str, u64)> = cases.iter().map(|c| (c.0, c.2)).collect();
    assert_eq!(got, want, "LogisticRegression::fit output moved");
}
