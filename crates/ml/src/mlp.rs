//! Multi-layer perceptrons with ReLU activations, trained by
//! backpropagation with the Adam optimizer (Kingma & Ba), as the paper's
//! MLP adaptation models are (§5, §7).

use crate::dataset::Dataset;
use crate::linalg::{dot, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// MLP topology and training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer widths ("filters per layer" in the paper's terms).
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
}

impl MlpConfig {
    /// The paper's Best MLP topology: 3 layers of 8/8/4 filters (§6.3).
    pub fn best_mlp() -> MlpConfig {
        MlpConfig {
            hidden: vec![8, 8, 4],
            ..MlpConfig::default()
        }
    }

    /// The CHARSTAR baseline topology: 1 layer of 10 filters (§7).
    pub fn charstar() -> MlpConfig {
        MlpConfig {
            hidden: vec![10],
            ..MlpConfig::default()
        }
    }
}

impl Default for MlpConfig {
    fn default() -> MlpConfig {
        MlpConfig {
            hidden: vec![8, 8, 4],
            learning_rate: 3e-3,
            epochs: 30,
            batch_size: 64,
            weight_decay: 1e-5,
        }
    }
}

#[derive(Debug, Clone)]
struct Layer {
    /// `out × in` weights.
    w: Matrix,
    b: Vec<f64>,
    // Adam state
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(input: usize, output: usize, rng: &mut StdRng) -> Layer {
        let scale = (2.0 / input as f64).sqrt();
        let mut w = Matrix::zeros(output, input);
        for r in 0..output {
            for c in 0..input {
                w.set(r, c, (rng.gen::<f64>() * 2.0 - 1.0) * scale);
            }
        }
        Layer {
            mw: Matrix::zeros(output, input),
            vw: Matrix::zeros(output, input),
            mb: vec![0.0; output],
            vb: vec![0.0; output],
            b: vec![0.0; output],
            w,
        }
    }
}

/// A binary-classification MLP (sigmoid output head).
///
/// # Examples
///
/// ```
/// use psca_ml::{Dataset, Matrix, Mlp, MlpConfig};
///
/// // Learn y = x0 > 0.
/// let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i as f64 - 100.0) / 50.0]).collect();
/// let labels: Vec<u8> = rows.iter().map(|r| (r[0] > 0.0) as u8).collect();
/// let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
/// let data = Dataset::new(Matrix::from_rows(&refs), labels, vec![0; 200]);
/// let mlp = Mlp::fit(&MlpConfig::default(), &data, 2);
/// assert!(mlp.predict_proba(&[1.0]) > 0.5);
/// assert!(mlp.predict_proba(&[-1.0]) < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    threshold: f64,
    adam_t: u64,
}

impl Mlp {
    /// Trains an MLP on the dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `cfg.batch_size` is zero.
    pub fn fit(cfg: &MlpConfig, data: &Dataset, seed: u64) -> Mlp {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(
            cfg.batch_size > 0,
            "MlpConfig::batch_size must be at least 1"
        );
        let _span = psca_obs::SpanTimer::start("ml.mlp.fit");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![data.dim()];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let layers = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        let mut mlp = Mlp {
            layers,
            threshold: 0.5,
            adam_t: 0,
        };
        let mut scratch = TrainScratch::new(&mlp.layers);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                mlp.train_batch(cfg, data, chunk, &mut scratch);
            }
        }
        mlp
    }

    /// Reconstructs an MLP from layer weights (rows = filters), biases,
    /// and a decision threshold — the firmware-image deserialization path.
    ///
    /// # Panics
    /// Panics if layer shapes do not chain (layer `i`'s filter count must
    /// equal layer `i+1`'s input width) or the output layer is not 1-wide.
    pub fn from_layers(layers: Vec<(Matrix, Vec<f64>)>, threshold: f64) -> Mlp {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].0.rows(),
                pair[1].0.cols(),
                "layer shapes do not chain"
            );
        }
        let last = layers.last().unwrap();
        assert_eq!(last.0.rows(), 1, "output layer must have one unit");
        let layers = layers
            .into_iter()
            .map(|(w, b)| {
                assert_eq!(w.rows(), b.len(), "bias arity mismatch");
                Layer {
                    mw: Matrix::zeros(w.rows(), w.cols()),
                    vw: Matrix::zeros(w.rows(), w.cols()),
                    mb: vec![0.0; b.len()],
                    vb: vec![0.0; b.len()],
                    b,
                    w,
                }
            })
            .collect();
        Mlp {
            layers,
            threshold: threshold.clamp(0.0, 1.0),
            adam_t: 0,
        }
    }

    /// Hidden+output layer count (the paper counts hidden layers).
    pub fn num_hidden_layers(&self) -> usize {
        self.layers.len().saturating_sub(1)
    }

    /// Total trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Weights of layer `i` (rows = filters).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn layer_weights(&self, i: usize) -> (&Matrix, &[f64]) {
        (&self.layers[i].w, &self.layers[i].b)
    }

    /// Number of layers including the output head.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The decision threshold applied by [`Mlp::predict`].
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Adjusts the decision threshold (the paper tunes "sensitivity" to
    /// keep tuning-set SLA violations below 1%, §6.3).
    pub fn set_threshold(&mut self, t: f64) {
        self.threshold = t.clamp(0.0, 1.0);
    }

    /// Probability that the positive (gate) class is correct.
    ///
    /// # Panics
    /// Panics if `x` has wrong dimensionality.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.forward_into(x, &mut Activations::new(&self.layers)))
    }

    /// Thresholded prediction.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= self.threshold
    }

    /// Forward pass into `acts`, returning the output logit (the head is
    /// linear; the sigmoid is applied by the caller).
    ///
    /// # Panics
    /// Panics if `x` has wrong dimensionality.
    fn forward_into(&self, x: &[f64], acts: &mut Activations) -> f64 {
        assert_eq!(x.len(), self.layers[0].w.cols(), "dimension mismatch");
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let (below, rest) = acts.hidden.split_at_mut(li);
            let input = if li == 0 { x } else { &below[li - 1] };
            let z = &mut acts.zs[li];
            for (r, (zr, &b)) in z.iter_mut().zip(&layer.b).enumerate() {
                *zr = dot(layer.w.row(r), input) + b;
            }
            if li < last {
                for (a, &v) in rest[0].iter_mut().zip(z.iter()) {
                    *a = v.max(0.0);
                }
            }
        }
        acts.zs[last][0]
    }

    /// One Adam step on the mean gradient of the samples `idx`. Allocates
    /// nothing: every per-sample and per-batch buffer is in `s`, which it
    /// leaves ready for the next batch.
    fn train_batch(
        &mut self,
        cfg: &MlpConfig,
        data: &Dataset,
        idx: &[usize],
        s: &mut TrainScratch,
    ) {
        let nl = self.layers.len();
        for &i in idx {
            let (x, y) = data.sample(i);
            let out = self.forward_into(x, &mut s.acts);
            // BCE with logits: dL/dz_out = sigmoid(z) - y.
            s.delta.clear();
            s.delta.push(sigmoid(out) - y as f64);
            for li in (0..nl).rev() {
                let w = &self.layers[li].w;
                let input = if li == 0 { x } else { &s.acts.hidden[li - 1] };
                for (r, &d) in s.delta.iter().enumerate() {
                    s.grads_b[li][r] += d;
                    for (gc, &xin) in s.grads_w[li].row_mut(r).iter_mut().zip(input) {
                        *gc += d * xin;
                    }
                }
                if li > 0 {
                    s.next.clear();
                    s.next.resize(w.cols(), 0.0);
                    for (r, &d) in s.delta.iter().enumerate() {
                        for (nv, &wv) in s.next.iter_mut().zip(w.row(r)) {
                            *nv += d * wv;
                        }
                    }
                    // ReLU derivative of the previous layer.
                    for (nv, &z) in s.next.iter_mut().zip(&s.acts.zs[li - 1]) {
                        if z <= 0.0 {
                            *nv = 0.0;
                        }
                    }
                    std::mem::swap(&mut s.delta, &mut s.next);
                }
            }
        }
        // Adam update. Each gradient sum is taken (leaving zero behind for
        // the next batch) as it is read.
        self.adam_t += 1;
        let t = self.adam_t as f64;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let scale = 1.0 / idx.len() as f64;
        let lr = cfg.learning_rate;
        for ((layer, gw), gb) in self
            .layers
            .iter_mut()
            .zip(&mut s.grads_w)
            .zip(&mut s.grads_b)
        {
            for (r, gb) in gb.iter_mut().enumerate() {
                let row = layer
                    .w
                    .row_mut(r)
                    .iter_mut()
                    .zip(layer.mw.row_mut(r))
                    .zip(layer.vw.row_mut(r))
                    .zip(gw.row_mut(r));
                for (((w, mw), vw), gsum) in row {
                    let g = std::mem::take(gsum) * scale + cfg.weight_decay * *w;
                    let m = b1 * *mw + (1.0 - b1) * g;
                    let v = b2 * *vw + (1.0 - b2) * g * g;
                    *mw = m;
                    *vw = v;
                    *w -= lr * (m / bc1) / ((v / bc2).sqrt() + eps);
                }
                let g = std::mem::take(gb) * scale;
                let m = b1 * layer.mb[r] + (1.0 - b1) * g;
                let v = b2 * layer.vb[r] + (1.0 - b2) * g * g;
                layer.mb[r] = m;
                layer.vb[r] = v;
                layer.b[r] -= lr * (m / bc1) / ((v / bc2).sqrt() + eps);
            }
        }
    }
}

/// One forward pass's buffers: every layer's pre-activations and every
/// hidden layer's ReLU outputs, sized from the topology.
struct Activations {
    /// `zs[l]`: layer `l`'s pre-activations.
    zs: Vec<Vec<f64>>,
    /// `hidden[l]`: layer `l`'s ReLU outputs, the input of layer `l + 1`.
    hidden: Vec<Vec<f64>>,
}

impl Activations {
    fn new(layers: &[Layer]) -> Activations {
        let zs: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let hidden = zs[..zs.len() - 1].to_vec();
        Activations { zs, hidden }
    }
}

/// Everything a training run writes per sample and per batch, allocated
/// once by [`Mlp::fit`] and reused by every [`Mlp::train_batch`].
struct TrainScratch {
    acts: Activations,
    /// Backpropagated error at the current layer's outputs, and the one
    /// being formed for the layer below.
    delta: Vec<f64>,
    next: Vec<f64>,
    /// The batch's gradient sums, shaped like the weights and biases;
    /// zero between batches.
    grads_w: Vec<Matrix>,
    grads_b: Vec<Vec<f64>>,
}

impl TrainScratch {
    fn new(layers: &[Layer]) -> TrainScratch {
        let widest = layers.iter().map(|l| l.w.cols().max(l.w.rows())).max();
        let widest = widest.expect("an MLP has at least one layer");
        TrainScratch {
            acts: Activations::new(layers),
            delta: Vec::with_capacity(widest),
            next: Vec::with_capacity(widest),
            grads_w: layers
                .iter()
                .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                .collect(),
            grads_b: layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(5);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let a = rng.gen::<f64>() * 2.0 - 1.0;
            let b = rng.gen::<f64>() * 2.0 - 1.0;
            rows.push(vec![a, b]);
            labels.push(((a > 0.0) != (b > 0.0)) as u8);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
    }

    #[test]
    fn learns_xor_nonlinear_boundary() {
        let data = xor_dataset(600);
        let cfg = MlpConfig {
            hidden: vec![16, 8],
            epochs: 120,
            learning_rate: 5e-3,
            ..MlpConfig::default()
        };
        let mlp = Mlp::fit(&cfg, &data, 3);
        let acc = (0..data.len())
            .filter(|&i| {
                let (x, y) = data.sample(i);
                mlp.predict(x) == (y == 1)
            })
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.9, "XOR accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = xor_dataset(100);
        let a = Mlp::fit(&MlpConfig::default(), &data, 7);
        let b = Mlp::fit(&MlpConfig::default(), &data, 7);
        assert_eq!(a.predict_proba(&[0.3, -0.4]), b.predict_proba(&[0.3, -0.4]));
        let c = Mlp::fit(&MlpConfig::default(), &data, 8);
        assert_ne!(a.predict_proba(&[0.3, -0.4]), c.predict_proba(&[0.3, -0.4]));
    }

    #[test]
    fn parameter_count_matches_topology() {
        let data = xor_dataset(10);
        let cfg = MlpConfig {
            hidden: vec![8, 8, 4],
            epochs: 1,
            ..MlpConfig::default()
        };
        let mlp = Mlp::fit(&cfg, &data, 1);
        // 2->8: 24, 8->8: 72, 8->4: 36, 4->1: 5
        assert_eq!(mlp.num_parameters(), 24 + 72 + 36 + 5);
        assert_eq!(mlp.num_layers(), 4);
        assert_eq!(mlp.num_hidden_layers(), 3);
    }

    #[test]
    fn threshold_moves_decision() {
        let data = xor_dataset(200);
        let mut mlp = Mlp::fit(&MlpConfig::default(), &data, 2);
        mlp.set_threshold(1.0);
        assert!(!mlp.predict(&[0.5, -0.5]));
        mlp.set_threshold(0.0);
        assert!(mlp.predict(&[0.5, -0.5]));
    }

    #[test]
    fn probabilities_are_valid() {
        let data = xor_dataset(50);
        let mlp = Mlp::fit(&MlpConfig::default(), &data, 2);
        for i in 0..data.len() {
            let p = mlp.predict_proba(data.sample(i).0);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "MlpConfig::batch_size must be at least 1")]
    fn zero_batch_size_rejected() {
        let cfg = MlpConfig {
            batch_size: 0,
            ..MlpConfig::default()
        };
        let _ = Mlp::fit(&cfg, &xor_dataset(10), 1);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let d = Dataset::new(Matrix::zeros(0, 2), vec![], vec![]);
        let _ = Mlp::fit(&MlpConfig::default(), &d, 1);
    }
}
