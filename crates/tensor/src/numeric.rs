//! Numerically stable scalar and vector functions used throughout the model:
//! activations, softmax, log-sigmoid (the BPR loss kernel) and cosine
//! similarity (the scene-based attention kernel, Eqs. 5 and 10).

/// Logistic sigmoid `1 / (1 + e^-x)`, stable for large `|x|`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Derivative of the sigmoid expressed via its output `s = sigmoid(x)`.
#[inline]
pub fn sigmoid_grad_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

/// `ln(sigmoid(x))`, stable for large negative `x` where the naive form
/// underflows to `ln(0)`.
///
/// This is the per-example BPR loss kernel: the paper's Eq. (15) sums
/// `-ln σ(r_px - r_py)`.
#[inline]
pub fn log_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        -((-x).exp()).ln_1p()
    } else {
        x - x.exp().ln_1p()
    }
}

/// Rectified linear unit.
#[inline]
pub fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Subgradient of ReLU (0 at the kink, the common convention).
#[inline]
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Leaky ReLU with slope `alpha` for negative inputs.
#[inline]
pub fn leaky_relu(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        alpha * x
    }
}

/// Derivative of leaky ReLU.
#[inline]
pub fn leaky_relu_grad(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        alpha
    }
}

/// Hyperbolic tangent (delegates to std, which is stable).
#[inline]
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// Derivative of tanh expressed via its output `t = tanh(x)`.
#[inline]
pub fn tanh_grad_from_output(t: f32) -> f32 {
    1.0 - t * t
}

/// In-place, max-shifted softmax over a slice.
///
/// An empty slice is left untouched (the paper's attention never normalizes
/// an empty neighbor set; callers guard that case).
pub fn softmax_inplace(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    // `sum >= 1` always holds after the max shift (the max element maps to
    // exp(0) = 1), so the division is safe.
    for v in xs.iter_mut() {
        *v /= sum;
    }
}

/// Softmax into a fresh vector.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    softmax_inplace(&mut out);
    out
}

/// Cosine similarity between two equal-length vectors.
///
/// Returns 0 when either vector has (near-)zero norm, matching the behaviour
/// the paper needs when a category belongs to no scene: its scene-sum is the
/// zero vector and its attention contribution should be neutral.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine length mismatch");
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = na.sqrt() * nb.sqrt();
    if denom <= f32::EPSILON {
        0.0
    } else {
        (dot / denom).clamp(-1.0, 1.0)
    }
}

/// Both gradients of `cosine_similarity(a, b)`, each scaled by `scale`
/// (the upstream gradient), from one evaluation of `|a|²`, `|b|²` and
/// `a·b`.
///
/// `d/da cos = b/(|a||b|) - cos · a/|a|²`, and symmetrically for `b`.
/// Every expression is the one the per-operand form evaluates — the
/// products `|a||b|` and `a_i b_i` commute exactly — so the result is
/// bit-identical to computing `d/da` and `d/db` separately. Returns
/// `0 · scale` everywhere when either norm vanishes (consistent with the
/// forward convention above).
pub fn cosine_grads(a: &[f32], b: &[f32], scale: f32) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(a.len(), b.len(), "cosine length mismatch");
    let na2: f32 = a.iter().map(|v| v * v).sum();
    let nb2: f32 = b.iter().map(|v| v * v).sum();
    let na = na2.sqrt();
    let nb = nb2.sqrt();
    if na * nb <= f32::EPSILON {
        let zeros = vec![0.0 * scale; a.len()];
        return (zeros.clone(), zeros);
    }
    let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
    let nab = na * nb;
    let cos = dot / nab;
    let ga = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (y / nab - cos * x / na2) * scale)
        .collect();
    let gb = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x / nab - cos * y / nb2) * scale)
        .collect();
    (ga, gb)
}

/// Clamps `x` into `[lo, hi]`.
#[inline]
pub fn clamp(x: f32, lo: f32, hi: f32) -> f32 {
    x.max(lo).min(hi)
}

/// Element-wise activation functions (the `σ` of Eqs. 1, 2, 7, 12 and the
/// hidden activations of the MLPs in Eqs. 13–14). Lives here, beside the
/// scalar functions it applies, so the serving kernels in
/// [`crate::score`] apply exactly the tape's activation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// Identity (no-op) — used for final scoring layers where BPR needs an
    /// unbounded score.
    Identity,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
}

impl Act {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Act::Identity => x,
            Act::Sigmoid => sigmoid(x),
            Act::Relu => relu(x),
            Act::Tanh => tanh(x),
            Act::LeakyRelu(a) => leaky_relu(x, a),
        }
    }

    /// Derivative given both the input `x` and the output `y = f(x)`.
    #[inline]
    pub fn grad(self, x: f32, y: f32) -> f32 {
        match self {
            Act::Identity => 1.0,
            Act::Sigmoid => sigmoid_grad_from_output(y),
            Act::Relu => relu_grad(x),
            Act::Tanh => tanh_grad_from_output(y),
            Act::LeakyRelu(a) => leaky_relu_grad(x, a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!(close(sigmoid(0.0), 0.5));
        assert!(close(sigmoid(3.0) + sigmoid(-3.0), 1.0));
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
    }

    #[test]
    fn sigmoid_extreme_inputs_are_finite() {
        assert!(sigmoid(1e4).is_finite());
        assert!(sigmoid(-1e4).is_finite());
        assert_eq!(sigmoid(-1e4), 0.0);
    }

    #[test]
    fn log_sigmoid_matches_naive_in_safe_range() {
        for &x in &[-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            assert!(close(log_sigmoid(x), sigmoid(x).ln()));
        }
    }

    #[test]
    fn log_sigmoid_stable_for_large_negative() {
        let v = log_sigmoid(-100.0);
        assert!(v.is_finite());
        assert!(close(v, -100.0)); // ln σ(x) ≈ x for x << 0
    }

    #[test]
    fn relu_family() {
        assert_eq!(relu(2.0), 2.0);
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu_grad(2.0), 1.0);
        assert_eq!(relu_grad(-2.0), 0.0);
        assert_eq!(leaky_relu(-2.0, 0.1), -0.2);
        assert_eq!(leaky_relu_grad(-2.0, 0.1), 0.1);
        assert_eq!(leaky_relu(3.0, 0.1), 3.0);
    }

    #[test]
    fn tanh_grads() {
        let t = tanh(0.7);
        assert!(close(tanh_grad_from_output(t), 1.0 - t * t));
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!(close(p.iter().sum::<f32>(), 1.0));
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_shift_invariance() {
        let p1 = softmax(&[1.0, 2.0, 3.0]);
        let p2 = softmax(&[101.0, 102.0, 103.0]);
        for (a, b) in p1.iter().zip(&p2) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let p = softmax(&[-1e30, 0.0, 1e30]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(close(p[2], 1.0));
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut v: Vec<f32> = vec![];
        softmax_inplace(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn softmax_single_element() {
        assert_eq!(softmax(&[42.0]), vec![1.0]);
    }

    #[test]
    fn cosine_basic_cases() {
        assert!(close(cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]), 1.0));
        assert!(close(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]), 0.0));
        assert!(close(cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]), -1.0));
    }

    #[test]
    fn cosine_zero_vector_is_neutral() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(
            cosine_grads(&[0.0, 0.0], &[1.0, 2.0], 1.0),
            (vec![0.0, 0.0], vec![0.0, 0.0])
        );
    }

    #[test]
    fn cosine_grad_matches_finite_difference() {
        let a = [0.3f32, -0.7, 1.2];
        let b = [0.9f32, 0.1, -0.4];
        let (g, _) = cosine_grads(&a, &b, 1.0);
        let eps = 1e-3f32;
        for i in 0..a.len() {
            let mut ap = a;
            let mut am = a;
            ap[i] += eps;
            am[i] -= eps;
            let fd = (cosine_similarity(&ap, &b) - cosine_similarity(&am, &b)) / (2.0 * eps);
            assert!(
                (fd - g[i]).abs() < 1e-2,
                "grad[{i}]: fd={fd} analytic={}",
                g[i]
            );
        }
    }

    /// The per-operand gradient, evaluated on its own: what the shared
    /// evaluation in [`cosine_grads`] must reproduce bit for bit.
    fn grad_wrt_first(a: &[f32], b: &[f32]) -> Vec<f32> {
        let na2: f32 = a.iter().map(|v| v * v).sum();
        let nb2: f32 = b.iter().map(|v| v * v).sum();
        let (na, nb) = (na2.sqrt(), nb2.sqrt());
        if na * nb <= f32::EPSILON {
            return vec![0.0; a.len()];
        }
        let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
        let cos = dot / (na * nb);
        a.iter()
            .zip(b)
            .map(|(&x, &y)| y / (na * nb) - cos * x / na2)
            .collect()
    }

    #[test]
    fn shared_cosine_grads_equal_per_operand_grads_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut seed = 0x9e37_79b9u32;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            (seed % 2001) as f32 / 1000.0 - 1.0
        };
        for n in [1usize, 2, 3, 8, 13, 32] {
            for scale in [1.0f32, -0.37, 0.0, -0.0, 2.5e-39] {
                let a: Vec<f32> = (0..n).map(|_| next()).collect();
                let b: Vec<f32> = (0..n).map(|_| next()).collect();
                let zeros = vec![0.0; n];
                for (x, y) in [(&a, &b), (&zeros, &b), (&a, &zeros)] {
                    let (ga, gb) = cosine_grads(x, y, scale);
                    let scaled = |mut g: Vec<f32>| {
                        g.iter_mut().for_each(|v| *v *= scale);
                        g
                    };
                    assert_eq!(bits(&ga), bits(&scaled(grad_wrt_first(x, y))));
                    assert_eq!(bits(&gb), bits(&scaled(grad_wrt_first(y, x))));
                }
            }
        }
    }
}
