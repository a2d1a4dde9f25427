//! Multilayer-perceptron inference: the ML kernel of Feed1/Feed2/Ads1
//! (§2.1 notes the inference services use Multilayer Perceptrons).
//!
//! Allocation-free in the hot path, so the per-inference cost measured
//! by the harness is the host inference itself — the `α·C` the
//! remote-inference case study offloads. Weights are row-major.
//! Single-input inference has one (scalar) path. Batched inference has
//! an AVX2 path, dispatched at run time, that computes 4 output neurons
//! × 16 batch lanes per register tile (8 independent accumulation
//! chains), and [`Mlp::forward_batch_scalar`] as its bit-identical
//! reference: the unaccelerated host tier `accelctl calibrate` measures
//! the AVX2 path against.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors evaluating an MLP.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlpError {
    /// The input vector's length does not match the first layer.
    InputMismatch {
        /// Expected input width.
        expected: usize,
        /// Supplied input width.
        actual: usize,
    },
}

impl fmt::Display for MlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlpError::InputMismatch { expected, actual } => {
                write!(f, "input has {actual} features, network expects {expected}")
            }
        }
    }
}

impl std::error::Error for MlpError {}

/// The activation applied after a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Identity (used for output layers producing raw scores).
    Linear,
    /// Logistic sigmoid (used for click-probability outputs).
    Sigmoid,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }
}

/// One dense layer: `outputs = act(W·inputs + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    inputs: usize,
    outputs: usize,
    /// Row-major weights: `weights[o * inputs + i]`, one contiguous row
    /// per output neuron.
    weights: Vec<f32>,
    biases: Vec<f32>,
    activation: Activation,
}

impl Layer {
    /// Deterministic pseudo-random layer for benchmarks and tests
    /// (xorshift-seeded weights in [-0.5, 0.5)).
    #[must_use]
    pub fn seeded(inputs: usize, outputs: usize, activation: Activation, seed: u64) -> Self {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let weights = (0..inputs * outputs).map(|_| next()).collect();
        let biases = (0..outputs).map(|_| next()).collect();
        Self {
            inputs,
            outputs,
            weights,
            biases,
            activation,
        }
    }

    /// Forward pass for one input. `output` is cleared and refilled.
    ///
    /// Per output neuron the accumulation runs `bias + Σ wᵢ·xᵢ` in
    /// ascending `i`: one serial dependency chain per output, so it
    /// stays scalar by design (vectorizing it would re-associate the
    /// sum).
    fn forward(&self, input: &[f32], output: &mut Vec<f32>) {
        output.clear();
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let mut acc = self.biases[o];
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            output.push(self.activation.apply(acc));
        }
    }

    /// Forward pass for a feature-major batch: `input[i * batch_len + b]`
    /// holds input feature `i` of batch element `b`, and the output is
    /// written the same way (`output[o * batch_len + b]`). `output` is
    /// cleared and refilled.
    ///
    /// Feature-major layout puts the B independent accumulation chains
    /// for one output neuron contiguously, so the inner loop runs across
    /// the batch in 8-wide chunks — independent chains the CPU can
    /// pipeline (and pack into SIMD lanes) instead of stalling on one
    /// serial f32 add chain. With `simd`, the AVX2 tiles of
    /// [`simd::forward_batch`] fill the first `batch_len - batch_len % 8`
    /// lanes of every neuron and the scalar loop below finishes the rest.
    /// Per (input, output) pair the accumulation order is exactly
    /// [`Layer::forward`]'s — `bias + Σ wᵢ·xᵢ` in ascending `i` — so
    /// batch outputs are bit-identical to `batch_len` scalar passes.
    fn forward_batch(&self, input: &[f32], batch_len: usize, output: &mut Vec<f32>, simd: bool) {
        debug_assert_eq!(input.len(), batch_len * self.inputs);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
        output.clear();
        if batch_len == 0 {
            return;
        }
        output.resize(batch_len * self.outputs, 0.0);
        // Lanes `[0, vector_lanes)` of every neuron hold raw AVX2 sums.
        let mut vector_lanes = 0;
        #[cfg(target_arch = "x86_64")]
        if simd {
            debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
            debug_assert_eq!(self.weights.len(), self.outputs * self.inputs);
            debug_assert_eq!(self.biases.len(), self.outputs);
            debug_assert_eq!(output.len(), self.outputs * batch_len);
            // SAFETY: `simd` is only set after runtime AVX2 detection;
            // every tile checks its own slice bounds.
            #[allow(unsafe_code)]
            unsafe {
                simd::forward_batch(&self.weights, &self.biases, input, batch_len, output);
            }
            vector_lanes = batch_len - batch_len % 8;
        }
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let bias = self.biases[o];
            let yrow = &mut output[o * batch_len..(o + 1) * batch_len];
            for y in &mut yrow[..vector_lanes] {
                *y = self.activation.apply(*y);
            }
            let mut b0 = vector_lanes;
            while b0 + 8 <= batch_len {
                let mut acc = [bias; 8];
                for (&w, xrow) in row.iter().zip(input.chunks_exact(batch_len)) {
                    let x: &[f32; 8] = xrow[b0..b0 + 8].try_into().expect("8-wide chunk");
                    for (a, &x) in acc.iter_mut().zip(x) {
                        *a += w * x;
                    }
                }
                for (y, a) in yrow[b0..b0 + 8].iter_mut().zip(acc) {
                    *y = self.activation.apply(a);
                }
                b0 += 8;
            }
            for b in b0..batch_len {
                let mut acc = bias;
                for (&w, xrow) in row.iter().zip(input.chunks_exact(batch_len)) {
                    acc += w * xrow[b];
                }
                yrow[b] = self.activation.apply(acc);
            }
        }
    }
}

/// AVX2 register tiles for [`Layer::forward_batch`]. A tile keeps `R`
/// output neurons × `V` 8-lane batch vectors in `R·V` independent
/// accumulators: the 4×2 body tile has 8 chains in flight, so the loop
/// is bound by `vaddps` throughput rather than its latency, and each
/// weight broadcast is reused across `V` vectors and each input load
/// across `R` neurons. Every accumulator is still one neuron's
/// mul-then-add chain over ascending input index starting from the bias
/// — exactly the scalar order — so f32 results are bit-identical
/// (`_mm256_mul_ps` + `_mm256_add_ps` per element is the same two
/// roundings as `acc + w * x`; no FMA, which would contract them into
/// one). Tiles store raw sums; the caller applies the activation through
/// the scalar [`Activation::apply`] pass.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// Raw sums `bias + Σᵢ w[o][i]·input[i·B + b]` of every neuron `o`
    /// and every lane `b < batch_len - batch_len % 8`, stored at
    /// `output[o·B + b]`: 4×2 tiles over the body, 1-neuron and
    /// 1-vector tiles over `outputs % 4` and `batch_len % 16`. The last
    /// `batch_len % 8` lanes are left to the caller.
    #[target_feature(enable = "avx2")]
    pub fn forward_batch(
        weights: &[f32],
        biases: &[f32],
        input: &[f32],
        batch_len: usize,
        output: &mut [f32],
    ) {
        let inputs = input.len() / batch_len;
        let mut o = 0;
        while o + 4 <= biases.len() {
            rows::<4>(weights, biases, inputs, input, batch_len, output, o);
            o += 4;
        }
        while o < biases.len() {
            rows::<1>(weights, biases, inputs, input, batch_len, output, o);
            o += 1;
        }
    }

    /// Neurons `o0..o0 + R` over every full 8-lane vector of the batch.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rows<const R: usize>(
        weights: &[f32],
        biases: &[f32],
        inputs: usize,
        input: &[f32],
        batch_len: usize,
        output: &mut [f32],
        o0: usize,
    ) {
        let weights = &weights[o0 * inputs..(o0 + R) * inputs];
        let biases = &biases[o0..o0 + R];
        let output = &mut output[o0 * batch_len..(o0 + R) * batch_len];
        let mut b0 = 0;
        while b0 + 16 <= batch_len {
            tile::<R, 2>(weights, biases, input, batch_len, output, b0);
            b0 += 16;
        }
        if b0 + 8 <= batch_len {
            tile::<R, 1>(weights, biases, input, batch_len, output, b0);
        }
    }

    /// One `R`×`V` tile: lanes `b0..b0 + 8·V` of the `R` neurons whose
    /// rows are `weights` (`R` × inputs) and whose outputs are `output`
    /// (`R` × `batch_len`).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn tile<const R: usize, const V: usize>(
        weights: &[f32],
        biases: &[f32],
        input: &[f32],
        batch_len: usize,
        output: &mut [f32],
        b0: usize,
    ) {
        let inputs = weights.len() / R;
        assert!(
            biases.len() == R
                && weights.len() == R * inputs
                && input.len() == inputs * batch_len
                && output.len() == R * batch_len
                && b0 + 8 * V <= batch_len,
            "tile out of bounds"
        );
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for (row, &bias) in acc.iter_mut().zip(biases) {
            *row = [_mm256_set1_ps(bias); V];
        }
        // SAFETY: the assert above bounds every access: weight `r·inputs
        // + i` with `r < R`, `i < inputs`; input `i·B + b0 + 8v + 7 <
        // inputs·B`; output `r·B + b0 + 8v + 7 < R·B`.
        unsafe {
            let (w, x) = (weights.as_ptr(), input.as_ptr().add(b0));
            for i in 0..inputs {
                let mut xv = [_mm256_setzero_ps(); V];
                for (v, lane) in xv.iter_mut().enumerate() {
                    *lane = _mm256_loadu_ps(x.add(i * batch_len + 8 * v));
                }
                for (r, row) in acc.iter_mut().enumerate() {
                    let wv = _mm256_set1_ps(*w.add(r * inputs + i));
                    for (a, &xv) in row.iter_mut().zip(&xv) {
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, xv));
                    }
                }
            }
            let y = output.as_mut_ptr().add(b0);
            for (r, row) in acc.iter().enumerate() {
                for (v, &a) in row.iter().enumerate() {
                    _mm256_storeu_ps(y.add(r * batch_len + 8 * v), a);
                }
            }
        }
    }
}

/// Reusable ping-pong activation buffers for allocation-free inference.
///
/// One scratch serves any network and any batch size; buffers grow to
/// the high-water mark and are reused thereafter.
#[derive(Debug, Default, Clone)]
pub struct MlpScratch {
    current: Vec<f32>,
    next: Vec<f32>,
}

impl MlpScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A multilayer perceptron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// A deterministic ReLU MLP with the given layer widths (e.g.
    /// `[512, 256, 64, 1]`), sigmoid on the output layer — the shape of a
    /// feed-ranking relevance model.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    #[must_use]
    pub fn seeded_ranker(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == widths.len() {
                    Activation::Sigmoid
                } else {
                    Activation::Relu
                };
                Layer::seeded(w[0], w[1], act, seed.wrapping_add(i as u64 * 0x9E37_79B9))
            })
            .collect();
        Self { layers }
    }

    /// The expected input width.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.layers[0].inputs
    }

    /// The output width.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.layers
            .last()
            .expect("non-empty by construction")
            .outputs
    }

    /// Runs inference on one feature vector: the row-major reference
    /// the batched path is checked against.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError::InputMismatch`] if the feature vector's length
    /// differs from [`Mlp::input_width`].
    pub fn infer(&self, features: &[f32]) -> Result<Vec<f32>, MlpError> {
        if features.len() != self.input_width() {
            return Err(MlpError::InputMismatch {
                expected: self.input_width(),
                actual: features.len(),
            });
        }
        let mut current = features.to_vec();
        let mut next = Vec::new();
        for layer in &self.layers {
            layer.forward(&current, &mut next);
            std::mem::swap(&mut current, &mut next);
        }
        Ok(current)
    }

    /// Runs a batch of B feature vectors through reusable scratch
    /// buffers, writing the flattened outputs (element `o` of batch
    /// entry `b` at `out[b * output_width + o]`) into `out` (cleared
    /// first) — the batched execution Ads1 amortizes its offload
    /// interface cost over (§4, case study 3).
    ///
    /// Weight rows are reused across the batch (each layer's matrix is
    /// streamed once per batch, not once per input), but every input's
    /// accumulation order is exactly [`Mlp::infer`]'s, so the outputs
    /// are bit-identical to B scalar calls — the batch-vs-scalar
    /// proptest pins this.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError::InputMismatch`] on the first mismatched
    /// feature vector.
    pub fn forward_batch(
        &self,
        batch: &[Vec<f32>],
        scratch: &mut MlpScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), MlpError> {
        self.forward_batch_with(
            batch,
            scratch,
            out,
            crate::dispatch::has(crate::dispatch::AVX2),
        )
    }

    /// [`Mlp::forward_batch`] pinned to the scalar reference path,
    /// regardless of the dispatch mode; bit-identical outputs.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError::InputMismatch`] on the first mismatched
    /// feature vector.
    pub fn forward_batch_scalar(
        &self,
        batch: &[Vec<f32>],
        scratch: &mut MlpScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), MlpError> {
        self.forward_batch_with(batch, scratch, out, false)
    }

    fn forward_batch_with(
        &self,
        batch: &[Vec<f32>],
        scratch: &mut MlpScratch,
        out: &mut Vec<f32>,
        simd: bool,
    ) -> Result<(), MlpError> {
        let width = self.input_width();
        for features in batch {
            if features.len() != width {
                return Err(MlpError::InputMismatch {
                    expected: width,
                    actual: features.len(),
                });
            }
        }
        // Activations travel feature-major (`[i * B + b]`) between
        // layers — see [`Layer::forward_batch`] — so pack the batch
        // transposed and un-transpose the final activations.
        scratch.current.clear();
        scratch.current.resize(batch.len() * width, 0.0);
        for (b, features) in batch.iter().enumerate() {
            for (i, &x) in features.iter().enumerate() {
                scratch.current[i * batch.len() + b] = x;
            }
        }
        for layer in &self.layers {
            layer.forward_batch(&scratch.current, batch.len(), &mut scratch.next, simd);
            std::mem::swap(&mut scratch.current, &mut scratch.next);
        }
        let out_width = self.output_width();
        out.clear();
        out.resize(batch.len() * out_width, 0.0);
        for o in 0..out_width {
            for b in 0..batch.len() {
                out[b * out_width + o] = scratch.current[o * batch.len() + b];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_forward_pass() {
        // One layer: 2 inputs, 2 outputs, ReLU.
        // W = [[1, 2], [-1, 1]], b = [0.5, -10].
        let layer = Layer {
            inputs: 2,
            outputs: 2,
            weights: vec![1.0, 2.0, -1.0, 1.0],
            biases: vec![0.5, -10.0],
            activation: Activation::Relu,
        };
        let mlp = Mlp {
            layers: vec![layer],
        };
        let out = mlp.infer(&[3.0, 4.0]).unwrap();
        // [1*3 + 2*4 + 0.5, relu(-3 + 4 - 10)] = [11.5, 0].
        assert_eq!(out, vec![11.5, 0.0]);
    }

    #[test]
    fn sigmoid_output_is_probability() {
        let mlp = Mlp::seeded_ranker(&[32, 16, 1], 42);
        let features: Vec<f32> = (0..32).map(|i| i as f32 / 32.0).collect();
        let out = mlp.infer(&features).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0] > 0.0 && out[0] < 1.0);
    }

    #[test]
    fn inference_is_deterministic() {
        let mlp = Mlp::seeded_ranker(&[64, 32, 8, 1], 7);
        let features = vec![0.25f32; 64];
        assert_eq!(mlp.infer(&features).unwrap(), mlp.infer(&features).unwrap());
        // Different seeds give different networks.
        let other = Mlp::seeded_ranker(&[64, 32, 8, 1], 8);
        assert_ne!(
            mlp.infer(&features).unwrap(),
            other.infer(&features).unwrap()
        );
    }

    #[test]
    fn input_width_validation() {
        let mlp = Mlp::seeded_ranker(&[16, 1], 3);
        assert!(matches!(
            mlp.infer(&[0.0; 15]),
            Err(MlpError::InputMismatch {
                expected: 16,
                actual: 15
            })
        ));
    }

    #[test]
    fn ranker_widths() {
        let mlp = Mlp::seeded_ranker(&[512, 256, 64, 1], 1);
        assert_eq!(mlp.input_width(), 512);
        assert_eq!(mlp.output_width(), 1);
    }

    #[test]
    fn forward_batch_bit_identical_to_scalar() {
        let mlp = Mlp::seeded_ranker(&[32, 16, 4], 23);
        let batch: Vec<Vec<f32>> = (0..7)
            .map(|i| {
                (0..32)
                    .map(|j| ((i * 31 + j * 7) % 100) as f32 / 50.0 - 1.0)
                    .collect()
            })
            .collect();
        let mut scratch = MlpScratch::new();
        let mut flat = Vec::new();
        mlp.forward_batch(&batch, &mut scratch, &mut flat).unwrap();
        assert_eq!(flat.len(), batch.len() * mlp.output_width());
        for (b, features) in batch.iter().enumerate() {
            let scalar = mlp.infer(features).unwrap();
            let from_batch = &flat[b * 4..(b + 1) * 4];
            // Bitwise, not approximate.
            assert_eq!(
                scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                from_batch.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn dispatched_batch_bit_identical_to_scalar() {
        // Odd widths and a batch of 17 force the SIMD remainder paths.
        // Bitwise equality, not approximate — the full sweep lives in
        // simd_equivalence.
        let mlp = Mlp::seeded_ranker(&[19, 13, 5], 77);
        let batch: Vec<Vec<f32>> = (0..17)
            .map(|i| {
                (0..19)
                    .map(|j| ((i * 17 + j * 5) % 64) as f32 / 16.0 - 2.0)
                    .collect()
            })
            .collect();
        let mut scratch = MlpScratch::new();
        let (mut a, mut s) = (Vec::new(), Vec::new());
        mlp.forward_batch(&batch, &mut scratch, &mut a).unwrap();
        mlp.forward_batch_scalar(&batch, &mut scratch, &mut s)
            .unwrap();
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn forward_batch_rejects_ragged_input() {
        let mlp = Mlp::seeded_ranker(&[8, 1], 2);
        let batch = vec![vec![0.0f32; 8], vec![0.0f32; 7]];
        let mut scratch = MlpScratch::new();
        let mut out = Vec::new();
        assert!(matches!(
            mlp.forward_batch(&batch, &mut scratch, &mut out),
            Err(MlpError::InputMismatch {
                expected: 8,
                actual: 7
            })
        ));
        // Empty batch is fine and produces no outputs.
        mlp.forward_batch(&[], &mut scratch, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Activation::Relu.apply(-5.0), 0.0);
        assert_eq!(Activation::Relu.apply(5.0), 5.0);
        assert_eq!(Activation::Linear.apply(-5.0), -5.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn error_display() {
        let e = MlpError::InputMismatch {
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains('4'));
    }
}
