//! Hand-written AVX2 kernels, bit-identical to their scalar twins.
//!
//! Every function here is `unsafe` and `#[target_feature]`-gated: the
//! only sound way in is through [`crate::dispatch`], whose
//! `detect_cpu` check proves `avx2`, `fma` and `f16c` are present
//! before [`crate::dispatch::Backend::Avx2`] can be observed by a
//! kernel call site (lint rule S1 enforces the comment discipline).
//!
//! **Bit-exactness.** The kernels deliberately use *unfused*
//! `_mm256_mul_ps` + `_mm256_add_ps` rather than FMA: rustc does not
//! contract float expressions, so the scalar kernels round after every
//! multiply — a fused kernel would produce different last bits.
//! Each vector lane replays the exact per-element operation sequence of
//! the corresponding scalar kernel, and horizontal reductions use the
//! same fixed pairwise order, so `scalar == avx2` holds bit for bit.
//! The integer int8 kernel is exact arithmetic in `i32`, which is
//! order-independent, so it is trivially identical to its scalar twin.

use crate::error::TensorResult;
use crate::gemm::{MR, NR};
use crate::numeric::Act;
use crate::score::{MlpHead, PackedLayer, LANES, START};
use crate::update::{dead_lane_rho_mantissa, RmsPropStep};
use core::arch::x86_64::*;

/// Dot product with [`crate::linalg::dot`]'s exact float order: one
/// 8-lane accumulator updated mul-then-add per chunk, lanes reduced
/// pairwise, scalar tail added last.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2`, which is only true when
// `detect_cpu` observed avx2+fma+f16c at runtime.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const LANES: usize = 8;
    let main = a.len() - a.len() % LANES;
    let mut acc = _mm256_setzero_ps();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: i + LANES <= main <= a.len() == b.len(), so both
        // 8-lane unaligned loads read in bounds.
        let (va, vb) = unsafe { (_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i))) };
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        i += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is exactly 8 f32s, the width of one ymm store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    let mut tail = 0.0f32;
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        tail += x * y;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// Dot product of an `f32` row against an `f16` (bit-level `u16`) row,
/// widening via `_mm256_cvtph_ps` — exact, like the scalar software
/// widening — then following [`dot_avx2`]'s float order.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2` (avx2+fma+f16c verified);
// f16c covers `_mm256_cvtph_ps`.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn dot_f16_avx2(a: &[f32], hb: &[u16]) -> f32 {
    debug_assert_eq!(a.len(), hb.len());
    const LANES: usize = 8;
    let main = a.len() - a.len() % LANES;
    let mut acc = _mm256_setzero_ps();
    let (pa, ph) = (a.as_ptr(), hb.as_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: i + LANES <= main <= a.len() == hb.len(); the f32
        // load reads 8 lanes of `a`, the 128-bit load 8 u16s of `hb`.
        let (va, vh) = unsafe {
            (
                _mm256_loadu_ps(pa.add(i)),
                _mm_loadu_si128(ph.add(i) as *const __m128i),
            )
        };
        let vb = _mm256_cvtph_ps(vh);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        i += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is exactly 8 f32s, the width of one ymm store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    let mut tail = 0.0f32;
    for (x, h) in a[main..].iter().zip(&hb[main..]) {
        tail += x * crate::quant::f16_to_f32(*h);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// Integer dot of a pre-centered `i16` user row against a raw `i8` item
/// row with zero point `zv`: `Σ uc[j] * (v[j] - zv)`, exact in `i32`
/// (both operands are bounded by 255 in magnitude, so every
/// `_mm256_madd_epi16` pair fits). Integer addition is associative —
/// the wide and scalar orders agree exactly.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2` (avx2 verified at runtime).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn dot_i8_avx2(uc: &[i16], v: &[i8], zv: i16) -> i32 {
    debug_assert_eq!(uc.len(), v.len());
    const STEP: usize = 16;
    let main = uc.len() - uc.len() % STEP;
    let vz = _mm256_set1_epi16(zv);
    let mut acc = _mm256_setzero_si256();
    let (pu, pv) = (uc.as_ptr(), v.as_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: i + STEP <= main <= uc.len() == v.len(); the 128-bit
        // load reads 16 i8s of `v`, the 256-bit load 16 i16s of `uc`.
        let (raw, u) = unsafe {
            (
                _mm_loadu_si128(pv.add(i) as *const __m128i),
                _mm256_loadu_si256(pu.add(i) as *const __m256i),
            )
        };
        let wide = _mm256_cvtepi8_epi16(raw);
        let centered = _mm256_sub_epi16(wide, vz);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(u, centered));
        i += STEP;
    }
    let mut lanes = [0i32; 8];
    // SAFETY: `lanes` is exactly 8 i32s, the width of one ymm store.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
    let mut total: i32 = lanes.iter().sum();
    let zv = zv as i32;
    for (&u, &q) in uc[main..].iter().zip(&v[main..]) {
        total += u as i32 * (q as i32 - zv);
    }
    total
}

/// The GEMM register tile: replays `gemm::micro_kernel`'s per-element
/// mul-then-add sequence with 8 `ymm` accumulators (4 lanes x 2 halves
/// of the 16-wide strip), then adds the live `mr x nr` block into `C`
/// in the same order as the scalar writeback.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2`, and pass panel slices with
// the packed layout produced by `gemm::pack_a`/`gemm::pack_b`
// (`a_pack` holds `kc` MR-words, `b_strip` holds `kc` NR-words).
#[target_feature(enable = "avx2,fma,f16c")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn micro_kernel_avx2(
    c_band: &mut [f32],
    ir: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
    kc: usize,
    a_pack: &[f32],
    b_strip: &[f32],
) {
    debug_assert!(a_pack.len() >= kc * MR);
    debug_assert!(b_strip.len() >= kc * NR);
    let mut acc = [_mm256_setzero_ps(); 2 * MR];
    let (pa, pb) = (a_pack.as_ptr(), b_strip.as_ptr());
    for p in 0..kc {
        // SAFETY: p < kc and the asserted pack invariant
        // `b_strip.len() >= kc * NR` keep both 8-lane loads (NR = 16:
        // offsets 0 and 8 of the p-th NR-word) inside the packed panel.
        let (b_lo, b_hi) = unsafe {
            (
                _mm256_loadu_ps(pb.add(p * NR)),
                _mm256_loadu_ps(pb.add(p * NR + 8)),
            )
        };
        for lane in 0..MR {
            // SAFETY: lane < MR, so `p * MR + lane < kc * MR`, which the
            // asserted pack invariant bounds by `a_pack.len()`.
            let va = unsafe { _mm256_set1_ps(*pa.add(p * MR + lane)) };
            acc[2 * lane] = _mm256_add_ps(acc[2 * lane], _mm256_mul_ps(va, b_lo));
            acc[2 * lane + 1] = _mm256_add_ps(acc[2 * lane + 1], _mm256_mul_ps(va, b_hi));
        }
    }
    for lane in 0..mr {
        let mut row = [0.0f32; NR];
        // SAFETY: `row` is exactly NR = 16 f32s — two 8-lane stores at
        // offsets 0 and 8.
        unsafe {
            _mm256_storeu_ps(row.as_mut_ptr(), acc[2 * lane]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), acc[2 * lane + 1]);
        }
        let base = (ir + lane) * n + j0;
        for (c_v, &acc_v) in c_band[base..base + nr].iter_mut().zip(&row[..nr]) {
            *c_v += acc_v;
        }
    }
}

/// The fused MLP-head kernel ([`crate::score::score_mlp_head`]): the
/// shared tile loop with every layer computed by [`head_layer_avx2`].
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2`, which is only true when
// `detect_cpu` observed avx2+fma+f16c at runtime.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn score_mlp_head_avx2<'r>(
    head: &MlpHead,
    rows: impl Iterator<Item = &'r [f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
) -> TensorResult<()> {
    crate::score::drive_head(
        head,
        rows,
        out,
        scratch,
        |l, w, bias, starts, x, prod, ys| {
            // SAFETY: this closure runs only inside `score_mlp_head_avx2`,
            // whose guarding dispatch check `dispatch::resolve(..) ==
            // Backend::Avx2` the caller holds.
            unsafe { head_layer_avx2(l, w, bias, starts, x, prod, ys) }
        },
        |xs, tile| {
            // SAFETY: as above — the caller holds the dispatch check.
            unsafe { transpose8_avx2(xs, tile) }
        },
    )
}

/// [`crate::score::transpose_scalar`] with the columns in 8×8 blocks
/// transposed in registers (unpack, shuffle, lane permute — moves only,
/// so the tile holds the same bits); the last `width % 8` columns go
/// through the scalar loop.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2`; every row of `xs` and the
// tile are resliced (bounds-checked) to the shared width.
#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn transpose8_avx2(xs: &[&[f32]; LANES], tile: &mut [f32]) {
    let width = tile.len() / LANES;
    let main = width - width % LANES;
    let rows: [&[f32]; LANES] = std::array::from_fn(|i| &xs[i][..width]);
    let mut j = 0;
    while j < main {
        // SAFETY: j + 8 <= main <= width = rows[i].len(), so each
        // 8-float load reads in bounds.
        let r: [__m256; LANES] =
            std::array::from_fn(|i| unsafe { _mm256_loadu_ps(rows[i].as_ptr().add(j)) });
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xee>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xee>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xee>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xee>(t5, t7);
        let cols = [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ];
        let dst = &mut tile[j * LANES..(j + LANES) * LANES];
        for (c, col) in cols.iter().enumerate() {
            // SAFETY: `dst` is exactly 64 floats; column c's 8 end at
            // `8 (c + 1) <= 64`.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr().add(c * LANES), *col) };
        }
        j += LANES;
    }
    for (jj, dst) in tile[main * LANES..].chunks_exact_mut(LANES).enumerate() {
        for (d, x) in dst.iter_mut().zip(&rows) {
            *d = x[main + jj];
        }
    }
}

/// One layer over one item-lane tile for a batch of users: register
/// `X[p]` holds input position `p` of 8 items, and each hidden row's
/// products `P[p] = X[p] * bcast(w[p])` are shared by the batch. Per
/// user, the 8 accumulators `acc[l]` — [`dot_avx2`]'s 8 lanes for all 8
/// items at once — start from the user's broadcast start lanes (zero
/// with `starts == None`) and add `acc[l] + P[c*8+l]` chunk by chunk;
/// the lane reduction `((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))` is plain
/// vertical adds; then `+ tail`, `+ bias` and the activation into the
/// user's output tile — every item lane exactly as `dot_avx2` + bias +
/// `Act::apply`, since each product and each add is the one a
/// mul-then-add loop performs.
///
/// Who builds the products: the first user adds each one straight from
/// the register that computed it, the second user computes them again
/// and also stores them to `prod`, and every later user reads them back
/// from L1. A batch of one thus runs exactly the per-user loop's
/// operations with no stores (with the stores, a one-user row measured
/// about 0.75x the per-user loop's speed), and every user past the
/// second skips the multiplies and the input and weight loads. The
/// activation runs as one sweep over `ys` after the rows, which keeps
/// the three per-user passes small enough to inline. Pad lanes of a
/// short tile are computed like live ones and discarded by the caller.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2`; `w`, `bias`, `x` and `prod`
// are resliced (bounds-checked) to the layer's extents, and the output
// tiles and start states are bounds-checked slices of `ys`/`starts`.
#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn head_layer_avx2(
    l: &PackedLayer,
    w: &[f32],
    bias: &[f32],
    starts: Option<&[f32]>,
    x: &[f32],
    prod: &mut [f32],
    ys: &mut [f32],
) {
    let row_len = l.row_len();
    // Bounds-checked reslices: every pointer offset below is proven
    // against these exact lengths.
    let (w, bias, x, prod) = (
        &w[..l.out * row_len],
        &bias[..l.out],
        &x[..row_len * LANES],
        &mut prod[..row_len * LANES],
    );
    let (px, pp) = (x.as_ptr(), prod.as_mut_ptr());
    for (r, wr) in w.chunks_exact(row_len).enumerate() {
        let pw = wr.as_ptr();
        let b = _mm256_set1_ps(bias[r]);
        // SAFETY: p < row_len = wr.len(), and position p's 8 floats end
        // at `(p + 1) * 8 <= row_len * 8`, the length of both `x` and
        // `prod`.
        let product = |p: usize| unsafe {
            _mm256_mul_ps(
                _mm256_loadu_ps(px.add(p * LANES)),
                _mm256_set1_ps(*pw.add(p)),
            )
        };
        let mut users = ys.chunks_exact_mut(l.out * LANES).enumerate();
        if let Some(user) = users.next() {
            // SAFETY: the caller holds the dispatch check (see above),
            // and `user_row_avx2` calls `product` with `p < row_len`.
            unsafe { user_row_avx2(l, starts, user, r, b, product) };
        }
        if let Some(user) = users.next() {
            let store = |p: usize| {
                let pv = product(p);
                // SAFETY: as for `product`, within `prod`.
                unsafe { _mm256_storeu_ps(pp.add(p * LANES), pv) };
                pv
            };
            // SAFETY: as for the first user.
            unsafe { user_row_avx2(l, starts, user, r, b, store) };
        }
        for user in users {
            // SAFETY: as for `product`; product p was stored at `p * 8`
            // by the second user's pass.
            let load = |p: usize| unsafe { _mm256_loadu_ps(pp.add(p * LANES)) };
            // SAFETY: as for the first user.
            unsafe { user_row_avx2(l, starts, user, r, b, load) };
        }
    }
    for y in ys.chunks_exact_mut(LANES) {
        // SAFETY: the caller holds the dispatch check; `y` is 8 floats.
        unsafe { act_avx2(l.act, _mm256_loadu_ps(y.as_ptr()), y) };
    }
}

/// One user's hidden row `r` over the tile, into its output tile `yu`:
/// the user's start lanes, `product(p)` added for the row's input
/// positions in ascending order — chunk positions into lane `p % 8` of
/// the accumulators, tail positions into the tail, always
/// `acc + product` — then the lane reduction
/// `((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`, `+ tail` and `+ b` (the
/// pre-activation).
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2`, and `product(p)` must be
// sound for every `p < l.row_len()`; the start state and the output
// are bounds-checked slices of `starts` and `yu`.
#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn user_row_avx2(
    l: &PackedLayer,
    starts: Option<&[f32]>,
    (u, yu): (usize, &mut [f32]),
    r: usize,
    b: __m256,
    mut product: impl FnMut(usize) -> __m256,
) {
    let (mut acc, mut tail) = match starts {
        Some(s) => {
            let st = &s[(u * l.out + r) * START..][..START];
            (
                std::array::from_fn(|lane| _mm256_set1_ps(st[lane])),
                _mm256_set1_ps(st[LANES]),
            )
        }
        None => ([_mm256_setzero_ps(); LANES], _mm256_setzero_ps()),
    };
    let main = l.chunks * LANES;
    let mut p = 0;
    while p < main {
        for (lane, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_ps(*a, product(p + lane));
        }
        p += LANES;
    }
    while p < l.row_len() {
        tail = _mm256_add_ps(tail, product(p));
        p += 1;
    }
    let s = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3])),
        _mm256_add_ps(_mm256_add_ps(acc[4], acc[5]), _mm256_add_ps(acc[6], acc[7])),
    );
    let y = &mut yu[r * LANES..(r + 1) * LANES];
    // SAFETY: `y` is exactly 8 floats, the width of one ymm store.
    unsafe { _mm256_storeu_ps(y.as_mut_ptr(), _mm256_add_ps(_mm256_add_ps(s, tail), b)) };
}

/// Applies `act` to 8 lanes and stores them to `y[..8]`, bit for bit as
/// `Act::apply` per lane: ReLU keeps `x` where `x > 0` and clears every
/// other lane to `+0.0` (the ordered compare is false for `-0.0` and
/// NaN), leaky ReLU blends `x` with `a * x` on the same mask, and the
/// transcendental activations run the scalar function per lane.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2`; `y` is resliced
// (bounds-checked) to 8 floats.
#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn act_avx2(act: Act, s: __m256, y: &mut [f32]) {
    let y = &mut y[..LANES];
    let positive = _mm256_cmp_ps::<_CMP_GT_OQ>(s, _mm256_setzero_ps());
    let v = match act {
        Act::Identity => s,
        Act::Relu => _mm256_and_ps(positive, s),
        Act::LeakyRelu(a) => _mm256_blendv_ps(_mm256_mul_ps(_mm256_set1_ps(a), s), s, positive),
        Act::Sigmoid | Act::Tanh => {
            // SAFETY: `y` is exactly 8 floats, the width of one ymm store.
            unsafe { _mm256_storeu_ps(y.as_mut_ptr(), s) };
            for v in y.iter_mut() {
                *v = act.apply(*v);
            }
            return;
        }
    };
    // SAFETY: `y` is exactly 8 floats, the width of one ymm store.
    unsafe { _mm256_storeu_ps(y.as_mut_ptr(), v) };
}

/// The RMSProp update ([`crate::update::rmsprop_update`]): each lane
/// replays `update::rmsprop_elem`'s operation sequence with correctly
/// rounded `mul`/`add`/`sqrt`/`div`/`sub` (no FMA), eight elements per
/// step; the tail runs `rmsprop_elem` itself.
///
/// Dead lanes (`g = ±0`, subnormal cache) take the exact shortcut of
/// `update::dead_lane_rho_mantissa` when the step allows it: their float ops
/// run on a normal stand-in cache, so no op sees a subnormal, and their
/// new cache comes from the integer product `dead_cache_avx2`.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2`, and pass three slices of
// equal length.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn rmsprop_update_avx2(
    value: &mut [f32],
    cache: &mut [f32],
    grad: &[f32],
    step: RmsPropStep,
) {
    debug_assert!(value.len() == grad.len() && cache.len() == grad.len());
    const LANES: usize = 8;
    let main = grad.len() - grad.len() % LANES;
    let rho = _mm256_set1_ps(step.rho);
    let one_minus_rho = _mm256_set1_ps(1.0 - step.rho);
    let lr = _mm256_set1_ps(step.lr);
    let eps = _mm256_set1_ps(step.eps);
    // Flags beside splatted constants rather than `Option::map`: lint
    // rule H1 resolves method calls by name, and `map` would resolve to
    // the allocating `Matrix::map`.
    let (decay_on, decay) = match step.decay {
        Some(f) => (true, _mm256_set1_ps(f)),
        None => (false, _mm256_setzero_ps()),
    };
    let (dead_on, rho_mantissa) = match dead_lane_rho_mantissa(step) {
        Some(r) => (true, _mm256_set1_epi64x(i64::from(r))),
        None => (false, _mm256_setzero_si256()),
    };
    let (zero, one) = (_mm256_setzero_si256(), _mm256_set1_ps(1.0));
    let (abs_mask, min_normal) = (
        _mm256_set1_epi32(0x7fff_ffff),
        _mm256_set1_epi32(0x0080_0000),
    );
    let (px, pc, pg) = (value.as_mut_ptr(), cache.as_mut_ptr(), grad.as_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: i + LANES <= main <= grad.len(), and the caller
        // guarantees value.len() == cache.len() == grad.len(), so all
        // three 8-lane loads read in bounds.
        let (x, c, g) = unsafe {
            (
                _mm256_loadu_ps(px.add(i)),
                _mm256_loadu_ps(pc.add(i)),
                _mm256_loadu_ps(pg.add(i)),
            )
        };
        // Dead lanes: cache bits in 1..0x80_0000 and |g| bits == 0.
        let dead_mask = if dead_on {
            let ci = _mm256_castps_si256(c);
            let subnormal = _mm256_and_si256(
                _mm256_cmpgt_epi32(ci, zero),
                _mm256_cmpgt_epi32(min_normal, ci),
            );
            let g_zero =
                _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_castps_si256(g), abs_mask), zero);
            _mm256_castsi256_ps(_mm256_and_si256(subnormal, g_zero))
        } else {
            _mm256_castsi256_ps(zero)
        };
        let any_dead = _mm256_movemask_ps(dead_mask) != 0;
        let c_in = if any_dead {
            _mm256_blendv_ps(c, one, dead_mask)
        } else {
            c
        };
        let c_new = _mm256_add_ps(
            _mm256_mul_ps(rho, c_in),
            _mm256_mul_ps(_mm256_mul_ps(one_minus_rho, g), g),
        );
        let x = _mm256_sub_ps(
            x,
            _mm256_div_ps(
                _mm256_mul_ps(lr, g),
                _mm256_add_ps(_mm256_sqrt_ps(c_new), eps),
            ),
        );
        let x = if decay_on {
            _mm256_sub_ps(x, _mm256_mul_ps(decay, x))
        } else {
            x
        };
        let c_new = if any_dead {
            // SAFETY: this function's own avx2 guarantee covers the call.
            let exact = unsafe { dead_cache_avx2(c, rho_mantissa) };
            _mm256_blendv_ps(c_new, exact, dead_mask)
        } else {
            c_new
        };
        // SAFETY: same in-bounds argument as the loads above; `value`
        // and `cache` are distinct `&mut` slices, so the stores alias
        // nothing else.
        unsafe {
            _mm256_storeu_ps(pc.add(i), c_new);
            _mm256_storeu_ps(px.add(i), x);
        }
        i += LANES;
    }
    for ((x, c), &g) in value[main..]
        .iter_mut()
        .zip(cache[main..].iter_mut())
        .zip(&grad[main..])
    {
        crate::update::rmsprop_elem(x, c, g, step);
    }
}

/// `ρ·c` for subnormal caches `c = m·2⁻¹⁴⁹`, exactly as the float
/// multiply rounds it: with `ρ = R·2⁻²⁴` (`R` the 24-bit significand,
/// `ρ ∈ [0.5, 1)`) the product is `R·m/2²⁴` units of `2⁻¹⁴⁹`, rounded to
/// nearest-even, and a subnormal's bit pattern is its unit count. The
/// 48-bit products are formed in 64-bit lanes, even and odd f32 lanes
/// separately. Lanes that are not subnormal produce garbage the caller
/// discards.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2` (avx2 verified at runtime).
#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn dead_cache_avx2(c: __m256, rho_mantissa: __m256i) -> __m256 {
    let ci = _mm256_castps_si256(c);
    let even = _mm256_mul_epu32(ci, rho_mantissa);
    let odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(ci), rho_mantissa);
    // SAFETY: this function's own avx2 guarantee covers both calls.
    let (even, odd) = unsafe { (round_shift24_avx2(even), round_shift24_avx2(odd)) };
    _mm256_castsi256_ps(_mm256_blend_epi32::<0b1010_1010>(
        even,
        _mm256_slli_epi64::<32>(odd),
    ))
}

/// `p / 2²⁴` rounded to nearest, ties to even, per 64-bit lane (`p <
/// 2⁶³`): adding `2²³ - 1` plus the kept quotient's low bit carries into
/// the quotient exactly when the remainder exceeds half, or equals half
/// with an odd quotient.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2` (avx2 verified at runtime).
#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn round_shift24_avx2(p: __m256i) -> __m256i {
    let odd = _mm256_and_si256(_mm256_srli_epi64::<24>(p), _mm256_set1_epi64x(1));
    let biased = _mm256_add_epi64(_mm256_add_epi64(p, _mm256_set1_epi64x((1 << 23) - 1)), odd);
    _mm256_srli_epi64::<24>(biased)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{self, Backend};

    /// The vector activations against `Act::apply` on the values where a
    /// vector `max`/compare could drift: signed zeros, NaN, infinities
    /// and subnormals.
    #[test]
    fn vector_activations_match_scalar_apply_bitwise() {
        if dispatch::cpu_backend() != Backend::Avx2 {
            return;
        }
        let x = [
            -0.0,
            0.0,
            f32::NAN,
            -1.5,
            2.5,
            -f32::from_bits(1),
            f32::NEG_INFINITY,
            f32::INFINITY,
        ];
        for act in [
            Act::Identity,
            Act::Sigmoid,
            Act::Relu,
            Act::Tanh,
            Act::LeakyRelu(0.2),
        ] {
            let mut got = [0.0f32; LANES];
            // SAFETY: the CPU reported avx2+fma+f16c (checked above);
            // `x` is exactly 8 floats.
            unsafe { act_avx2(act, _mm256_loadu_ps(x.as_ptr()), &mut got) };
            let want = x.map(|v| act.apply(v).to_bits());
            assert_eq!(got.map(f32::to_bits), want, "{act:?}");
        }
        assert_eq!(Act::Relu.apply(-0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(Act::Relu.apply(f32::NAN).to_bits(), 0.0f32.to_bits());
    }
}
