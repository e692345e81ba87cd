//! Kernel speedup report: seed-style naive matmul vs the blocked GEMM
//! at both dispatch backends (forced scalar vs runtime-detected SIMD),
//! the threaded path, and the serve scoring kernel (`score_bt`), across
//! a size sweep — plus one `mlp_head` row at the cold-serving shape: the
//! Eq. 14 rating head (64 → 32 ReLU → 1) over 50,000 items, scored by
//! the layer-by-layer `score_bt` stack and by the fused head kernel —
//! `mlp_head_batch` rows: the same head and catalog scored for batches
//! of 1, 2, 8, 32 and 64 users in one call (64 is the largest serving
//! `max_batch`), forced-scalar vs dispatched — and
//! one `rmsprop_update` row: the fused RMSProp + weight-decay update
//! over 10,465 elements (the dense parameters of the laptop-scale
//! SceneRec), on a normal-valued state and on one where about 18% of the
//! squared-gradient cache entries are subnormal (dead units whose cache
//! decays geometrically toward zero, as in training).
//!
//! ```text
//! cargo run -p scenerec-bench --bin kernels --release -- \
//!     [--sizes 64,128,256,512] [--reps 5] [--out results/BENCH_kernels.json]
//! ```
//!
//! Writes a `BENCH_kernels.json` run manifest under `results/` recording
//! per-size wall times, GFLOP/s, and three speedups per size: blocked
//! over naive, SIMD over forced-scalar (the micro-kernel win), and
//! threaded over naive. The `mlp_head` row asserts that both paths give
//! bit-identical scores on both backends before it reports GFLOP/s, the
//! `mlp_head_batch` rows that every user's batched scores equal its
//! one-user scores on both backends, and the `rmsprop_update` row that both backends leave bit-identical
//! parameters and caches before it reports nanoseconds per pass. The
//! manifest records which backend the runtime
//! dispatch resolved (`kernel_backend`), so diffs across machines with
//! different SIMD features are detectable. This file is the evidence
//! behind the "Performance" sections of README.md and DESIGN.md and is
//! gated in CI by `bench_diff`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scenerec_bench::cli::Args;
use scenerec_obs::RunManifest;
use scenerec_tensor::numeric::Act;
use scenerec_tensor::score::{HeadLayer, MlpHead};
use scenerec_tensor::update::{rmsprop_update_with_backend, RmsPropStep};
use scenerec_tensor::{backend_name, gemm, linalg, par, score, Backend, Initializer, Matrix};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One size's timings (best-of-`reps` wall time, nanoseconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelRow {
    size: usize,
    naive_ns: u64,
    gemm_scalar_ns: u64,
    gemm_simd_ns: u64,
    gemm_threaded_ns: u64,
    score_scalar_ns: u64,
    score_simd_ns: u64,
    gemm_simd_gflops: f64,
    /// Forced-scalar over dispatched GEMM: the micro-kernel win alone.
    gemm_simd_speedup: f64,
    /// Forced-scalar over dispatched `score_bt`: the serve-kernel win.
    score_simd_speedup: f64,
    /// Naive triple loop over the single-thread blocked scalar GEMM:
    /// the packing/blocking win alone.
    blocked_speedup: f64,
    /// Naive over the threaded dispatched GEMM: the full stack.
    threaded_speedup: f64,
}

/// The rating head at the cold-serving shape, best-of-`reps` per path.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MlpHeadRow {
    items: usize,
    /// Layer widths, input first.
    widths: Vec<usize>,
    stack_scalar_ns: u64,
    stack_simd_ns: u64,
    fused_scalar_ns: u64,
    fused_simd_ns: u64,
    stack_scalar_gflops: f64,
    stack_simd_gflops: f64,
    fused_scalar_gflops: f64,
    fused_simd_gflops: f64,
    /// Layer-by-layer stack over the fused kernel, both dispatched.
    fused_speedup: f64,
}

/// One user batch through the head kernel at the cold-serving shape,
/// best-of-`reps` per backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MlpHeadBatchRow {
    items: usize,
    users: usize,
    scalar_ns: u64,
    simd_ns: u64,
    /// Dispatched nanoseconds per (user, item) pair.
    simd_pair_ns: f64,
    simd_gflops: f64,
    /// Forced-scalar over dispatched.
    simd_speedup: f64,
}

/// The fused RMSProp update, best single pass per backend and state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RmsPropRow {
    elements: usize,
    /// Share of cache entries that are subnormal in the second state.
    subnormal_share: f64,
    normal_scalar_ns: u64,
    normal_simd_ns: u64,
    subnormal_scalar_ns: u64,
    subnormal_simd_ns: u64,
    /// Forced-scalar over dispatched, normal-valued state.
    normal_simd_speedup: f64,
    /// Forced-scalar over dispatched, subnormal-heavy state.
    subnormal_simd_speedup: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelsConfig {
    sizes: Vec<usize>,
    reps: usize,
    threads: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelResults {
    rows: Vec<KernelRow>,
    mlp_head: MlpHeadRow,
    mlp_head_batch: Vec<MlpHeadBatchRow>,
    rmsprop_update: RmsPropRow,
    /// `gemm_simd_speedup` at the largest swept size — the headline
    /// micro-kernel number (the tentpole target is >= 1.5 at 512^2 on
    /// AVX2 hosts; scalar-only hosts report ~1.0 here by construction).
    gemm_simd_speedup_at_max_size: f64,
}

/// Best-of-`reps` wall time of `f`, consuming the result so the work is
/// not optimized away.
fn best_ns(reps: usize, mut f: impl FnMut() -> Matrix) -> u64 {
    let mut best = u64::MAX;
    let mut sink = 0.0f32;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_nanos() as u64);
        sink += out.get(0, 0);
    }
    assert!(sink.is_finite());
    best
}

/// Cold-serving head shape: dim 32 users and items, Eq. 14's 64 → 32 → 1.
const MLP_ITEMS: usize = 50_000;
const MLP_DIM: usize = 32;
const MLP_HIDDEN: usize = 32;
const MLP_BAND: usize = 512;

/// The pre-fusion serving path: `[u ‖ i]` rows copied into a band
/// matrix, then `score_bt` + activation one layer at a time.
fn mlp_stack(layers: &[HeadLayer<'_>], user: &[f32], items: &Matrix, backend: Backend) -> Vec<f32> {
    let mut out = Vec::with_capacity(items.rows());
    let rows: Vec<&[f32]> = items.iter_rows().collect();
    for band in rows.chunks(MLP_BAND) {
        let mut h = Matrix::zeros(band.len(), user.len() + items.cols());
        for (r, item) in band.iter().enumerate() {
            let row = h.row_mut(r);
            row[..user.len()].copy_from_slice(user);
            row[user.len()..].copy_from_slice(item);
        }
        for layer in layers {
            let mut y = score::try_score_bt_with_backend(&h, layer.w, Some(layer.b), 1, backend)
                .expect("score_bt shapes");
            for v in y.as_mut_slice() {
                *v = layer.act.apply(*v);
            }
            h = y;
        }
        out.extend_from_slice(h.as_slice());
    }
    out
}

/// The fused head kernel, packed once for all `users`, `MLP_BAND` items
/// per call; returns user-major scores (`users x items`).
fn mlp_fused(
    layers: &[HeadLayer<'_>],
    users: &Matrix,
    items: &Matrix,
    backend: Backend,
) -> Vec<f32> {
    let head = MlpHead::try_new(layers.iter().copied(), users.iter_rows()).expect("head shapes");
    let mut scratch = vec![0.0f32; head.scratch_len()];
    let (nu, n) = (users.rows(), items.rows());
    let mut band_out = vec![0.0f32; nu * MLP_BAND];
    let mut out = vec![0.0f32; nu * n];
    let rows: Vec<&[f32]> = items.iter_rows().collect();
    for (b, band) in rows.chunks(MLP_BAND).enumerate() {
        let band_out = &mut band_out[..nu * band.len()];
        score::score_mlp_head_with_backend(
            &head,
            band.iter().copied(),
            band_out,
            &mut scratch,
            backend,
        )
        .expect("head shapes");
        for (u, part) in band_out.chunks_exact(band.len()).enumerate() {
            out[u * n + b * MLP_BAND..][..band.len()].copy_from_slice(part);
        }
    }
    out
}

/// The cold-serving head (64 → 32 ReLU → 1), its items and user rows.
struct HeadSetup {
    w1: Matrix,
    b1: Matrix,
    w2: Matrix,
    b2: Matrix,
    users: Matrix,
    items: Matrix,
}

impl HeadSetup {
    fn new(users: usize, rng: &mut StdRng) -> HeadSetup {
        HeadSetup {
            w1: Initializer::HeUniform.init(MLP_HIDDEN, 2 * MLP_DIM, rng),
            b1: Initializer::XavierUniform.init(1, MLP_HIDDEN, rng),
            w2: Initializer::XavierUniform.init(1, MLP_HIDDEN, rng),
            b2: Initializer::XavierUniform.init(1, 1, rng),
            users: Initializer::XavierUniform.init(users, MLP_DIM, rng),
            items: Initializer::XavierUniform.init(MLP_ITEMS, MLP_DIM, rng),
        }
    }

    fn layers(&self) -> [HeadLayer<'_>; 2] {
        [
            HeadLayer {
                w: &self.w1,
                b: self.b1.as_slice(),
                act: Act::Relu,
            },
            HeadLayer {
                w: &self.w2,
                b: self.b2.as_slice(),
                act: Act::Identity,
            },
        ]
    }

    /// Head FLOPs per (user, item) pair.
    fn pair_flops(&self) -> f64 {
        2.0 * (2 * MLP_DIM * MLP_HIDDEN + MLP_HIDDEN) as f64
    }
}

fn mlp_head_row(reps: usize, rng: &mut StdRng) -> MlpHeadRow {
    let widths = vec![2 * MLP_DIM, MLP_HIDDEN, 1];
    let setup = HeadSetup::new(1, rng);
    let (layers, items) = (setup.layers(), &setup.items);
    let user = &setup.users;
    let u = user.row(0);
    let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let want = bits(mlp_stack(&layers, u, items, Backend::Scalar));
    for backend in [Backend::Scalar, Backend::Avx2] {
        assert_eq!(
            bits(mlp_stack(&layers, u, items, backend)),
            want,
            "stack {backend:?}"
        );
        assert_eq!(
            bits(mlp_fused(&layers, user, items, backend)),
            want,
            "fused {backend:?}"
        );
    }
    let time = |f: &dyn Fn() -> Vec<f32>| {
        best_ns(reps, || {
            Matrix::from_vec(1, MLP_ITEMS, f()).expect("one score per item")
        })
    };
    let stack_scalar_ns = time(&|| mlp_stack(&layers, u, items, Backend::Scalar));
    let stack_simd_ns = time(&|| mlp_stack(&layers, u, items, scenerec_tensor::backend()));
    let fused_scalar_ns = time(&|| mlp_fused(&layers, user, items, Backend::Scalar));
    let fused_simd_ns = time(&|| mlp_fused(&layers, user, items, scenerec_tensor::backend()));
    let flops = MLP_ITEMS as f64
        * widths
            .windows(2)
            .map(|io| 2.0 * (io[0] * io[1]) as f64)
            .sum::<f64>();
    let gflops = |ns: u64| flops / ns.max(1) as f64;
    MlpHeadRow {
        items: MLP_ITEMS,
        widths,
        stack_scalar_ns,
        stack_simd_ns,
        fused_scalar_ns,
        fused_simd_ns,
        stack_scalar_gflops: gflops(stack_scalar_ns),
        stack_simd_gflops: gflops(stack_simd_ns),
        fused_scalar_gflops: gflops(fused_scalar_ns),
        fused_simd_gflops: gflops(fused_simd_ns),
        fused_speedup: stack_simd_ns as f64 / fused_simd_ns.max(1) as f64,
    }
}

/// User batch sizes of the `mlp_head_batch` rows.
const MLP_BATCHES: [usize; 5] = [1, 2, 8, 32, 64];

/// The head kernel for batches of users against the full catalog. Before
/// timing, every user's batched scores must equal its own one-user
/// scores, bit for bit, on both backends (the one-user kernel is held
/// to the layer stack by the `mlp_head` row and the property tests).
fn mlp_head_batch_rows(reps: usize, rng: &mut StdRng) -> Vec<MlpHeadBatchRow> {
    let max = MLP_BATCHES.iter().copied().max().unwrap_or(1);
    let setup = HeadSetup::new(max, rng);
    let (layers, items) = (setup.layers(), &setup.items);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let single: Vec<u32> = (0..max)
        .flat_map(|u| {
            let user = Matrix::from_vec(1, MLP_DIM, setup.users.row(u).to_vec()).expect("row");
            bits(&mlp_fused(&layers, &user, items, Backend::Scalar))
        })
        .collect();
    MLP_BATCHES
        .iter()
        .map(|&b| {
            let users =
                Matrix::from_vec(b, MLP_DIM, setup.users.as_slice()[..b * MLP_DIM].to_vec())
                    .expect("user rows");
            for backend in [Backend::Scalar, Backend::Avx2] {
                assert_eq!(
                    bits(&mlp_fused(&layers, &users, items, backend)),
                    single[..b * MLP_ITEMS],
                    "batch {b} {backend:?}"
                );
            }
            let time = |backend: Backend| {
                best_ns(reps, || {
                    let out = mlp_fused(&layers, &users, items, backend);
                    Matrix::from_vec(b, MLP_ITEMS, out).expect("users x items")
                })
            };
            let scalar_ns = time(Backend::Scalar);
            let simd_ns = time(scenerec_tensor::backend());
            let pairs = (b * MLP_ITEMS) as f64;
            MlpHeadBatchRow {
                items: MLP_ITEMS,
                users: b,
                scalar_ns,
                simd_ns,
                simd_pair_ns: simd_ns as f64 / pairs,
                simd_gflops: pairs * setup.pair_flops() / simd_ns.max(1) as f64,
                simd_speedup: scalar_ns as f64 / simd_ns.max(1) as f64,
            }
        })
        .collect()
}

/// The dense parameter count of the laptop-scale SceneRec.
const RMSPROP_ELEMENTS: usize = 10_465;
/// Timed passes per rep; each restores the state first, untimed.
const RMSPROP_PASSES: usize = 32;

/// One optimizer state: parameters, squared-gradient cache, gradient.
type UpdateState = (Vec<f32>, Vec<f32>, Vec<f32>);

/// A seeded state; `subnormal_share` of the entries are dead units: zero
/// gradient and a subnormal cache.
fn rmsprop_state(subnormal_share: f64, rng: &mut StdRng) -> UpdateState {
    use rand::Rng;
    let n = RMSPROP_ELEMENTS;
    let x = (0..n).map(|_| rng.gen_range(-0.2f32..0.2)).collect();
    let mut c: Vec<f32> = (0..n).map(|_| rng.gen_range(1e-8f32..1e-3)).collect();
    let mut g: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.05f32..0.05)).collect();
    for (c, g) in c.iter_mut().zip(g.iter_mut()) {
        if rng.gen_bool(subnormal_share) {
            *c = f32::from_bits(rng.gen_range(1u32..0x0080_0000));
            *g = 0.0;
        }
    }
    (x, c, g)
}

fn rmsprop_row(reps: usize, rng: &mut StdRng) -> RmsPropRow {
    // Table 2's settings: lr 1e-3, λ 1e-6, decay factor 2·lr·λ.
    let step = RmsPropStep {
        rho: 0.9,
        lr: 1e-3,
        eps: 1e-8,
        decay: Some(2.0 * 1e-3 * 1e-6),
    };
    let states = [rmsprop_state(0.0, rng), rmsprop_state(0.18, rng)];
    let pass = |state: &UpdateState, backend: Backend| {
        let (mut x, mut c) = (state.0.clone(), state.1.clone());
        rmsprop_update_with_backend(&mut x, &mut c, &state.2, step, backend);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        (bits(&x), bits(&c))
    };
    for state in &states {
        assert_eq!(
            pass(state, Backend::Scalar),
            pass(state, Backend::Avx2),
            "rmsprop_update backends disagree"
        );
    }
    let time = |state: &UpdateState, backend: Backend| {
        let (mut x, mut c) = (state.0.clone(), state.1.clone());
        let mut best = u64::MAX;
        for _ in 0..reps.max(1) * RMSPROP_PASSES {
            x.copy_from_slice(&state.0);
            c.copy_from_slice(&state.1);
            let start = Instant::now();
            rmsprop_update_with_backend(&mut x, &mut c, &state.2, step, backend);
            best = best.min(start.elapsed().as_nanos() as u64);
        }
        assert!(x.iter().all(|v| v.is_finite()));
        best
    };
    let simd = scenerec_tensor::backend();
    let [normal, subnormal] = &states;
    let subnormal_share =
        subnormal.1.iter().filter(|c| c.is_subnormal()).count() as f64 / RMSPROP_ELEMENTS as f64;
    let normal_scalar_ns = time(normal, Backend::Scalar);
    let normal_simd_ns = time(normal, simd);
    let subnormal_scalar_ns = time(subnormal, Backend::Scalar);
    let subnormal_simd_ns = time(subnormal, simd);
    RmsPropRow {
        elements: RMSPROP_ELEMENTS,
        subnormal_share,
        normal_scalar_ns,
        normal_simd_ns,
        subnormal_scalar_ns,
        subnormal_simd_ns,
        normal_simd_speedup: normal_scalar_ns as f64 / normal_simd_ns.max(1) as f64,
        subnormal_simd_speedup: subnormal_scalar_ns as f64 / subnormal_simd_ns.max(1) as f64,
    }
}

fn main() {
    let args = Args::from_env();
    let sizes: Vec<usize> = args
        .get("sizes")
        .unwrap_or("64,128,256,512")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .expect("--sizes wants comma-separated ints")
        })
        .collect();
    let reps: usize = args.get_or("reps", 5);
    let threads = par::max_threads();

    println!(
        "Kernel sweep (best of {reps} reps, {threads} hardware thread(s), backend {})\n",
        backend_name()
    );
    println!(
        "{:>6} {:>11} {:>11} {:>11} {:>11} {:>8} {:>7} {:>7} {:>7}",
        "size",
        "naive_ms",
        "scalar_ms",
        "simd_ms",
        "thread_ms",
        "gflops",
        "simd_x",
        "score_x",
        "thr_x"
    );

    let mut rng = StdRng::seed_from_u64(2021);
    let mut rows = Vec::new();
    for &d in &sizes {
        let a = Initializer::XavierUniform.init(d, d, &mut rng);
        let b = Initializer::XavierUniform.init(d, d, &mut rng);
        // The naive loop is O(d^3) with no blocking; cap its reps at the
        // big sizes so the sweep stays minutes, not hours.
        let naive_reps = if d >= 512 { reps.min(2) } else { reps };
        let naive_ns = best_ns(naive_reps, || linalg::matmul_naive(&a, &b));
        let gemm_scalar_ns = best_ns(reps, || {
            gemm::gemm_with_backend(&a, false, &b, false, 1, Backend::Scalar)
        });
        let gemm_simd_ns = best_ns(reps, || gemm::gemm(&a, false, &b, false, 1));
        let gemm_threaded_ns = best_ns(reps, || gemm::gemm(&a, false, &b, false, threads));
        let score_scalar_ns = best_ns(reps, || {
            score::try_score_bt_with_backend(&a, &b, None, 1, Backend::Scalar)
                .expect("score_bt shapes")
        });
        let score_simd_ns = best_ns(reps, || score::score_bt(&a, &b, None, 1));
        // One d^3 multiply-add pair per output element: 2*d^3 FLOPs.
        let flops = 2.0 * (d as f64).powi(3);
        let row = KernelRow {
            size: d,
            naive_ns,
            gemm_scalar_ns,
            gemm_simd_ns,
            gemm_threaded_ns,
            score_scalar_ns,
            score_simd_ns,
            gemm_simd_gflops: flops / gemm_simd_ns.max(1) as f64,
            gemm_simd_speedup: gemm_scalar_ns as f64 / gemm_simd_ns.max(1) as f64,
            score_simd_speedup: score_scalar_ns as f64 / score_simd_ns.max(1) as f64,
            blocked_speedup: naive_ns as f64 / gemm_scalar_ns.max(1) as f64,
            threaded_speedup: naive_ns as f64 / gemm_threaded_ns.max(1) as f64,
        };
        println!(
            "{:>6} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>8.2} {:>6.2}x {:>6.2}x {:>6.2}x",
            d,
            naive_ns as f64 / 1e6,
            gemm_scalar_ns as f64 / 1e6,
            gemm_simd_ns as f64 / 1e6,
            gemm_threaded_ns as f64 / 1e6,
            row.gemm_simd_gflops,
            row.gemm_simd_speedup,
            row.score_simd_speedup,
            row.threaded_speedup,
        );
        rows.push(row);
    }

    let mlp_head = mlp_head_row(reps, &mut rng);
    println!(
        "\nmlp_head ({} items, {:?}): stack {:.2}/{:.2} GFLOP/s, fused {:.2}/{:.2} GFLOP/s (scalar/{}), fused {:.2}x",
        mlp_head.items,
        mlp_head.widths,
        mlp_head.stack_scalar_gflops,
        mlp_head.stack_simd_gflops,
        mlp_head.fused_scalar_gflops,
        mlp_head.fused_simd_gflops,
        backend_name(),
        mlp_head.fused_speedup,
    );

    // Its own stream, so the rows after it draw what they always drew.
    let mlp_head_batch = mlp_head_batch_rows(reps, &mut StdRng::seed_from_u64(2014));
    for row in &mlp_head_batch {
        println!(
            "mlp_head_batch ({} users x {} items): scalar {:.1} ms, {} {:.1} ms ({:.1} ns/pair, {:.2} GFLOP/s, {:.2}x)",
            row.users,
            row.items,
            row.scalar_ns as f64 / 1e6,
            backend_name(),
            row.simd_ns as f64 / 1e6,
            row.simd_pair_ns,
            row.simd_gflops,
            row.simd_speedup,
        );
    }

    let rmsprop_update = rmsprop_row(reps, &mut rng);
    println!(
        "rmsprop_update ({} elements): normal {:.1}/{:.1} us, {:.0}% subnormal cache {:.1}/{:.1} us (scalar/{})",
        rmsprop_update.elements,
        rmsprop_update.normal_scalar_ns as f64 / 1e3,
        rmsprop_update.normal_simd_ns as f64 / 1e3,
        100.0 * rmsprop_update.subnormal_share,
        rmsprop_update.subnormal_scalar_ns as f64 / 1e3,
        rmsprop_update.subnormal_simd_ns as f64 / 1e3,
        backend_name(),
    );

    let headline = rows.last().map(|r| r.gemm_simd_speedup).unwrap_or(1.0);
    println!(
        "\n{} GEMM over forced-scalar at the largest size: {headline:.2}x",
        backend_name()
    );

    let out = args.get("out").unwrap_or("results/BENCH_kernels.json");
    let manifest = RunManifest::new("kernels")
        .with_config(&KernelsConfig {
            sizes,
            reps,
            threads,
        })
        .with_kernel_backend(backend_name())
        .with_results(&KernelResults {
            rows,
            mlp_head,
            mlp_head_batch,
            rmsprop_update,
            gemm_simd_speedup_at_max_size: headline,
        })
        .capture_telemetry();
    manifest
        .write_json(out)
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("[kernels] wrote {out}");
}
