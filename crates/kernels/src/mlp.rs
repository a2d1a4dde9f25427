//! Multilayer-perceptron inference: the ML kernel of Feed1/Feed2/Ads1
//! (§2.1 notes the inference services use Multilayer Perceptrons).
//!
//! Deliberately scalar and allocation-free in the hot path, so the
//! per-inference cost measured by the harness represents unaccelerated
//! host inference — the `α·C` the remote-inference case study offloads.
//! Weights are row-major. Single-input inference has one (scalar) path;
//! batched inference has an AVX2 path, dispatched at run time, and
//! [`Mlp::forward_batch_scalar`] as its bit-identical reference.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors constructing or evaluating an MLP.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlpError {
    /// A layer's weight matrix does not match its declared dimensions.
    ShapeMismatch {
        /// Layer index.
        layer: usize,
        /// Expected weight count (`inputs × outputs`).
        expected: usize,
        /// Actual weight count supplied.
        actual: usize,
    },
    /// Consecutive layers disagree on their shared dimension.
    LayerMismatch {
        /// Index of the later layer.
        layer: usize,
        /// The previous layer's output width.
        expected_inputs: usize,
        /// The later layer's declared input width.
        actual_inputs: usize,
    },
    /// The input vector's length does not match the first layer.
    InputMismatch {
        /// Expected input width.
        expected: usize,
        /// Supplied input width.
        actual: usize,
    },
    /// The network has no layers.
    Empty,
}

impl fmt::Display for MlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlpError::ShapeMismatch {
                layer,
                expected,
                actual,
            } => write!(f, "layer {layer}: expected {expected} weights, got {actual}"),
            MlpError::LayerMismatch {
                layer,
                expected_inputs,
                actual_inputs,
            } => write!(
                f,
                "layer {layer}: expects {actual_inputs} inputs but previous layer outputs {expected_inputs}"
            ),
            MlpError::InputMismatch { expected, actual } => {
                write!(f, "input has {actual} features, network expects {expected}")
            }
            MlpError::Empty => write!(f, "network has no layers"),
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
    /// Creates a dense layer.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError::ShapeMismatch`] if `weights.len()` is not
    /// `inputs × outputs` or `biases.len()` is not `outputs`.
    pub fn new(
        inputs: usize,
        outputs: usize,
        weights: Vec<f32>,
        biases: Vec<f32>,
        activation: Activation,
    ) -> Result<Self, MlpError> {
        if weights.len() != inputs * outputs || biases.len() != outputs {
            return Err(MlpError::ShapeMismatch {
                layer: 0,
                expected: inputs * outputs,
                actual: weights.len(),
            });
        }
        Ok(Self {
            inputs,
            outputs,
            weights,
            biases,
            activation,
        })
    }

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
    /// serial f32 add chain. Per (input, output) pair the accumulation
    /// order is exactly [`Layer::forward`]'s — `bias + Σ wᵢ·xᵢ` in
    /// ascending `i` — so batch outputs are bit-identical to
    /// `batch_len` scalar passes.
    fn forward_batch(&self, input: &[f32], batch_len: usize, output: &mut Vec<f32>, simd: bool) {
        debug_assert_eq!(input.len(), batch_len * self.inputs);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
        output.clear();
        if batch_len == 0 {
            return;
        }
        output.resize(batch_len * self.outputs, 0.0);
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let bias = self.biases[o];
            let yrow = &mut output[o * batch_len..(o + 1) * batch_len];
            let mut b0 = 0;
            while b0 + 8 <= batch_len {
                #[cfg(target_arch = "x86_64")]
                if simd {
                    // SAFETY: `simd` is only set after runtime AVX2
                    // detection; `b0 + 8 <= batch_len` bounds every lane
                    // load.
                    #[allow(unsafe_code)]
                    let acc = unsafe { simd::row_batch8(row, bias, input, batch_len, b0) };
                    for (y, a) in yrow[b0..b0 + 8].iter_mut().zip(acc) {
                        *y = self.activation.apply(a);
                    }
                    b0 += 8;
                    continue;
                }
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

/// AVX2 micro-kernel for [`Layer::forward_batch`]. It keeps each output
/// neuron's accumulation a mul-then-add chain over ascending input
/// index starting from the bias — exactly the scalar order — so f32
/// results are bit-identical (`_mm256_mul_ps` + `_mm256_add_ps` per
/// element is the same two roundings as `acc + w * x`; no FMA, which
/// would contract them into one). The caller applies the activation
/// through the scalar [`Activation::apply`] pass.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };

    /// Eight batch lanes of one row-major output neuron: lane `j`
    /// accumulates `bias + Σᵢ row[i]·input[i·B + b0 + j]` in ascending
    /// `i` — the vector register is exactly the scalar code's
    /// `[bias; 8]` accumulator array.
    ///
    /// # Safety
    /// Caller must have verified AVX2 at runtime and guarantee
    /// `b0 + 8 <= batch_len` with `input.len() = inputs · batch_len`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_batch8(
        row: &[f32],
        bias: f32,
        input: &[f32],
        batch_len: usize,
        b0: usize,
    ) -> [f32; 8] {
        let mut acc = _mm256_set1_ps(bias);
        for (i, &w) in row.iter().enumerate() {
            let wv = _mm256_set1_ps(w);
            // SAFETY: `i·B + b0 + 8 <= inputs·B = input.len()`.
            let x = unsafe { _mm256_loadu_ps(input.as_ptr().add(i * batch_len + b0)) };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, x));
        }
        let mut out = [0.0f32; 8];
        // SAFETY: `out` is exactly 32 bytes.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), acc) };
        out
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
    /// Builds a network from layers, validating that consecutive layers
    /// agree on their shared dimension.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError::Empty`] for zero layers or
    /// [`MlpError::LayerMismatch`] for incompatible shapes.
    pub fn new(layers: Vec<Layer>) -> Result<Self, MlpError> {
        if layers.is_empty() {
            return Err(MlpError::Empty);
        }
        for (i, pair) in layers.windows(2).enumerate() {
            if pair[0].outputs != pair[1].inputs {
                return Err(MlpError::LayerMismatch {
                    layer: i + 1,
                    expected_inputs: pair[0].outputs,
                    actual_inputs: pair[1].inputs,
                });
            }
        }
        Ok(Self { layers })
    }

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
        self.layers.last().expect("non-empty by construction").outputs
    }

    /// Runs inference on one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError::InputMismatch`] if the feature vector's length
    /// differs from [`Mlp::input_width`].
    pub fn infer(&self, features: &[f32]) -> Result<Vec<f32>, MlpError> {
        let mut scratch = MlpScratch::new();
        let mut out = Vec::new();
        self.infer_into(features, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Mlp::infer`] without the per-call allocations: activations live
    /// in `scratch`, the result lands in `out` (cleared first). Reusing
    /// the scratch across calls makes the hot path allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError::InputMismatch`] if the feature vector's length
    /// differs from [`Mlp::input_width`].
    pub fn infer_into(
        &self,
        features: &[f32],
        scratch: &mut MlpScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), MlpError> {
        if features.len() != self.input_width() {
            return Err(MlpError::InputMismatch {
                expected: self.input_width(),
                actual: features.len(),
            });
        }
        scratch.current.clear();
        scratch.current.extend_from_slice(features);
        for layer in &self.layers {
            layer.forward(&scratch.current, &mut scratch.next);
            std::mem::swap(&mut scratch.current, &mut scratch.next);
        }
        out.clear();
        out.extend_from_slice(&scratch.current);
        Ok(())
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
        self.forward_batch_with(batch, scratch, out, crate::dispatch::has(crate::dispatch::AVX2))
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
        let layer = Layer::new(
            2,
            2,
            vec![1.0, 2.0, -1.0, 1.0],
            vec![0.5, -10.0],
            Activation::Relu,
        )
        .unwrap();
        let mlp = Mlp::new(vec![layer]).unwrap();
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
        assert_ne!(mlp.infer(&features).unwrap(), other.infer(&features).unwrap());
    }

    #[test]
    fn shape_validation() {
        assert!(matches!(
            Layer::new(2, 2, vec![1.0; 3], vec![0.0; 2], Activation::Linear),
            Err(MlpError::ShapeMismatch { .. })
        ));
        let a = Layer::seeded(4, 8, Activation::Relu, 1);
        let b = Layer::seeded(9, 2, Activation::Linear, 2);
        assert!(matches!(
            Mlp::new(vec![a, b]),
            Err(MlpError::LayerMismatch { layer: 1, .. })
        ));
        assert!(matches!(Mlp::new(vec![]), Err(MlpError::Empty)));
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
            .map(|i| (0..32).map(|j| ((i * 31 + j * 7) % 100) as f32 / 50.0 - 1.0).collect())
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
            .map(|i| (0..19).map(|j| ((i * 17 + j * 5) % 64) as f32 / 16.0 - 2.0).collect())
            .collect();
        let mut scratch = MlpScratch::new();
        let (mut a, mut s) = (Vec::new(), Vec::new());
        mlp.forward_batch(&batch, &mut scratch, &mut a).unwrap();
        mlp.forward_batch_scalar(&batch, &mut scratch, &mut s).unwrap();
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn infer_into_reuses_scratch() {
        let mlp = Mlp::seeded_ranker(&[8, 4, 1], 9);
        let mut scratch = MlpScratch::new();
        let mut out = Vec::new();
        for i in 0..3 {
            let features: Vec<f32> = (0..8).map(|j| (i * 8 + j) as f32 / 24.0).collect();
            mlp.infer_into(&features, &mut scratch, &mut out).unwrap();
            assert_eq!(out, mlp.infer(&features).unwrap());
        }
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
        assert!(MlpError::Empty.to_string().contains("no layers"));
    }
}
