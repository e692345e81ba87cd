//! Element-wise optimizer update kernels.
//!
//! [`rmsprop_update`] is the RMSProp step of §5.3 with the decoupled
//! weight decay of Eq. 15 folded in, one pass over a parameter slice, its
//! squared-gradient cache and its gradient:
//!
//! ```text
//! c ← ρ·c + ((1-ρ)·g)·g
//! x ← x − (lr·g) / (√c + ε)
//! x ← x − f·x            (only when weight decay is on; f = 2·lr·λ)
//! ```
//!
//! Every step is a correctly rounded IEEE mul/add/sub/div/sqrt in exactly
//! this order, and nothing is contracted to FMA, so the scalar loop and
//! the AVX2 twin in `simd.rs` produce the same bits — including on
//! subnormal caches and gradients, which the hardware handles exactly
//! (flush-to-zero would change bits and is never enabled).
//!
//! **Dead lanes.** A subnormal operand or result costs a microcode assist
//! of roughly a hundred cycles per float op on x86, and training keeps a
//! steady population of them: a hidden unit whose gradient is exactly
//! zero (a dead ReLU row) decays its cache by ρ every step until it is
//! subnormal, and then for about 150 more steps until it reaches zero.
//! For such a lane (`g = ±0`, subnormal `c`) the update is known without
//! touching a subnormal: `((1-ρ)·g)·g = +0`, so `c ← ρ·c`, a subnormal
//! product whose correctly rounded value is an integer computation on
//! the significands (see `dead_lane_rho_mantissa`); and `lr·g = ±0` divided by any
//! positive finite denominator is the same `±0`, so `x` takes the same
//! step whatever stand-in cache feeds the square root. The AVX2 kernel
//! uses both facts; the scalar loop is the plain reference. Both give
//! the same bits, which the property tests check on subnormal-heavy
//! states.
//!
//! The kernel allocates nothing, takes no lock and performs no IO (lint
//! rule H1 roots `tensor::rmsprop_update_with_backend`).

use crate::dispatch::{self, Backend};

/// The coefficients of one RMSProp update pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmsPropStep {
    /// Squared-gradient decay ρ.
    pub rho: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator guard ε.
    pub eps: f32,
    /// Decoupled weight-decay factor `f` applied as `x − f·x` after the
    /// gradient step; `None` skips the decay entirely (which is not the
    /// same as `Some(0.0)`: `x − 0·x` turns an infinite `x` into NaN).
    pub decay: Option<f32>,
}

/// The dead-lane shortcut's constant `R` — ρ's 24-bit significand with
/// the implicit leading bit — or `None` when `step` rules the shortcut
/// out.
///
/// The shortcut is exact when `ρ ∈ [0.5, 1)`, `lr` is finite and `ε` is
/// positive and finite. Then `ρ = R·2⁻²⁴`, a subnormal cache
/// `c = m·2⁻¹⁴⁹` gives the subnormal product `R·m/2²⁴` units of `2⁻¹⁴⁹`,
/// rounded to nearest-even — which is the new cache's bit pattern;
/// `((1-ρ)·±0)·±0 = +0` adds nothing; and the gradient step divides `±0`
/// by `√c + ε ≥ ε > 0`.
pub(crate) fn dead_lane_rho_mantissa(step: RmsPropStep) -> Option<u32> {
    let exact = (0.5..1.0).contains(&step.rho)
        && step.lr.is_finite()
        && step.eps > 0.0
        && step.eps.is_finite();
    exact.then_some((step.rho.to_bits() & 0x007f_ffff) | 0x0080_0000)
}

/// One RMSProp pass over `value`, `cache` and `grad` (equal lengths),
/// on the process-wide kernel backend.
///
/// # Panics
/// Panics if the three slices differ in length.
#[inline]
pub fn rmsprop_update(value: &mut [f32], cache: &mut [f32], grad: &[f32], step: RmsPropStep) {
    rmsprop_update_with_backend(value, cache, grad, step, dispatch::backend());
}

/// [`rmsprop_update`] with an explicit backend request (degrades to
/// scalar when the CPU lacks AVX2). Bit-identical across backends.
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn rmsprop_update_with_backend(
    value: &mut [f32],
    cache: &mut [f32],
    grad: &[f32],
    step: RmsPropStep,
    backend: Backend,
) {
    assert_eq!(
        value.len(),
        grad.len(),
        "rmsprop value/grad length mismatch"
    );
    assert_eq!(
        cache.len(),
        grad.len(),
        "rmsprop cache/grad length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if dispatch::resolve(backend) == Backend::Avx2 {
        // SAFETY: `resolve` returns Avx2 only when the guarding dispatch
        // check (`detect_cpu`) saw avx2+fma+f16c on this CPU.
        unsafe { crate::simd::rmsprop_update_avx2(value, cache, grad, step) };
        return;
    }
    let _ = backend;
    rmsprop_scalar(value, cache, grad, step);
}

/// The scalar reference: [`rmsprop_elem`] over every element.
fn rmsprop_scalar(value: &mut [f32], cache: &mut [f32], grad: &[f32], step: RmsPropStep) {
    for ((x, c), &g) in value.iter_mut().zip(cache.iter_mut()).zip(grad) {
        rmsprop_elem(x, c, g, step);
    }
}

/// One element of the update; also the AVX2 kernel's tail.
#[inline(always)]
pub(crate) fn rmsprop_elem(x: &mut f32, c: &mut f32, g: f32, step: RmsPropStep) {
    *c = step.rho * *c + (1.0 - step.rho) * g * g;
    let mut v = *x - step.lr * g / (c.sqrt() + step.eps);
    if let Some(f) = step.decay {
        v -= f * v;
    }
    *x = v;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dead lanes (`g = ±0`, subnormal cache) across the whole subnormal
    /// range, including round-to-even ties (`ρ = 0.9` ties at `m = 2²²`
    /// and rounds up; `ρ = 0.5` ties at every odd `m`, both ways), on
    /// steps inside and outside the shortcut's domain; the scalar loop is
    /// the reference.
    #[test]
    fn dead_lanes_match_the_scalar_reference() {
        let mut m: Vec<u32> = (1..0x0080_0000).step_by(4099).collect();
        m.extend([1, 2, 3, 0x0040_0000, 0x007f_ffff]);
        let n = m.len();
        for (rho, lr, eps) in [
            (0.9f32, 1e-3f32, 1e-8f32),
            (0.99, -0.5, 1e-8),
            (0.5, 1e-2, 1e-30),
            (0.999_999_94, 1e-3, 1e-8),
            (0.9, 1e-3, 0.0),
            (0.9, f32::INFINITY, 1e-8),
            (1.5, 1e-3, 1e-8),
        ] {
            for decay in [None, Some(2e-6)] {
                let step = RmsPropStep {
                    rho,
                    lr,
                    eps,
                    decay,
                };
                let x: Vec<f32> = (0..n).map(|i| [0.25, -0.0, 0.0, -3.5][i % 4]).collect();
                let c: Vec<f32> = m.iter().map(|&b| f32::from_bits(b)).collect();
                let g: Vec<f32> = (0..n).map(|i| [0.0, -0.0][i % 2]).collect();
                let run = |backend| {
                    let (mut x, mut c) = (x.clone(), c.clone());
                    rmsprop_update_with_backend(&mut x, &mut c, &g, step, backend);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    (bits(&x), bits(&c))
                };
                assert_eq!(run(Backend::Avx2), run(Backend::Scalar), "{step:?}");
            }
        }
        let step = RmsPropStep {
            rho: 0.9,
            lr: 1e-3,
            eps: 1e-8,
            decay: None,
        };
        assert_eq!(dead_lane_rho_mantissa(step), Some(0x00e6_6666));
    }

    #[test]
    fn matches_the_written_out_formula() {
        let step = RmsPropStep {
            rho: 0.9,
            lr: 0.5,
            eps: 0.0,
            decay: Some(0.25),
        };
        let (mut x, mut c) = ([2.0f32], [0.0f32]);
        rmsprop_update(&mut x, &mut c, &[1.0], step);
        // c = (1-ρ)·1·1; x = 2 - 0.5/√c; x -= 0.25 x.
        let c_want = 0.9f32 * 0.0 + (1.0f32 - 0.9) * 1.0 * 1.0;
        let mut x_want = 2.0f32 - 0.5 * 1.0 / (c_want.sqrt() + 0.0);
        x_want -= 0.25 * x_want;
        assert_eq!(c[0].to_bits(), c_want.to_bits());
        assert_eq!(x[0].to_bits(), x_want.to_bits());
    }

    #[test]
    #[should_panic(expected = "rmsprop cache/grad length mismatch")]
    fn rejects_length_mismatch() {
        let step = RmsPropStep {
            rho: 0.9,
            lr: 1e-2,
            eps: 1e-8,
            decay: None,
        };
        rmsprop_update(&mut [0.0; 2], &mut [0.0; 3], &[0.0; 2], step);
    }
}
