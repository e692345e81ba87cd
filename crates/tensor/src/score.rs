//! Batched scoring kernels for the serving path.
//!
//! Serving must be **bit-faithful** to the tape the model was trained and
//! validated on: the autodiff `affine`/`dot` operators reduce every output
//! element with [`linalg::dot`]'s fixed 8-lane pairwise order, while the
//! blocked [`crate::gemm`] kernel accumulates its register tile serially
//! over `k` — a different (if equally deterministic) floating-point order.
//! A frozen engine scoring through `gemm` would drift from
//! `model.score_values` in the last bits and break exact-parity testing.
//!
//! [`score_bt`] therefore computes `C = A·Bᵀ (+ bias)` strictly
//! **dot-per-element**, never dispatching to the blocked kernel, and
//! threads over *row bands* of the output so every element is produced by
//! the same `linalg::dot` call regardless of the thread count. The result
//! is bit-identical to scoring each row with `linalg::matvec` + bias, at
//! any `threads`.
//!
//! [`score_mlp_head`] is the fused rating-head kernel behind MLP-head
//! serving (SceneRec's Eq. 14 over `[u ‖ i]`). It produces exactly the
//! floats a `try_score_bt` + [`Act::apply`] stack would, layer by layer,
//! while doing the user's share of layer 1 once per [`MlpHead`] instead
//! of once per item. What keeps it exact is the **per-lane prefix
//! invariant**: [`linalg::dot`] keeps 8 independent lane sums, each fed
//! its elements in ascending chunk order, plus a serial scalar tail that
//! starts at `0.0`. The user occupies the leading input positions, so
//! every lane's (and the tail's) user contributions come first in its
//! own sequence. Saving each hidden row's 8 lanes and tail after the
//! user positions, and resuming from them with only the item positions,
//! therefore replays every lane's exact sequence of adds — for any user
//! width, including a chunk shared by user and item values and an input
//! that ends in a scalar tail. The 8 lanes are then reduced in
//! `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))` order, `+ tail`, `+ bias`, and
//! the activation applied, as on the tape.

use crate::dispatch::{self, Backend};
use crate::error::{ShapeError, TensorResult};
use crate::linalg;
use crate::matrix::Matrix;
use crate::numeric::Act;
use crate::par;

/// `C = A·Bᵀ + bias` (shape-checked): `A` is `m x k`, `B` is `n x k`,
/// `bias` (when given) has length `n`, the result is `m x n` with
/// `C[i][j] = dot(A.row(i), B.row(j)) + bias[j]`.
///
/// Every element is one [`linalg::dot`] plus one scalar add — the exact
/// float sequence of the tape's `affine` operator (`matvec` then
/// `axpy(1.0, b, y)`) — so frozen-engine scores match tape scores bit for
/// bit. `threads > 1` splits the *output rows* into contiguous bands via
/// [`par::for_each_chunk_pair`]; per-element results do not depend on the
/// band boundaries, so the output is bit-identical at any thread count.
pub fn try_score_bt(
    a: &Matrix,
    b: &Matrix,
    bias: Option<&[f32]>,
    threads: usize,
) -> TensorResult<Matrix> {
    try_score_bt_with_backend(a, b, bias, threads, dispatch::backend())
}

/// [`try_score_bt`] with an explicit backend request (degrades to scalar
/// when the CPU lacks AVX2). Every element is still one
/// [`linalg::dot_with_backend`] call, and the AVX2 dot replays the
/// scalar float order — bit-identical across backends, threads and
/// bands.
pub fn try_score_bt_with_backend(
    a: &Matrix,
    b: &Matrix,
    bias: Option<&[f32]>,
    threads: usize,
    backend: Backend,
) -> TensorResult<Matrix> {
    let backend = dispatch::resolve(backend);
    if a.cols() != b.cols() {
        return Err(ShapeError::MatMul {
            lhs: a.shape(),
            rhs: (b.cols(), b.rows()),
        });
    }
    let (m, _k) = a.shape();
    let n = b.rows();
    if let Some(bias) = bias {
        if bias.len() != n {
            return Err(ShapeError::Mismatch {
                lhs: (bias.len(), 1),
                rhs: (n, 1),
                op: "score_bt bias",
            });
        }
    }
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let band = if threads <= 1 {
        m.max(1)
    } else {
        m.div_ceil(threads)
    };
    let a_rows: Vec<&[f32]> = a.iter_rows().collect();
    par::for_each_chunk_pair(c.as_mut_slice(), band * n, &a_rows, band, |_, out, rows| {
        for (c_row, a_row) in out.chunks_mut(n).zip(rows) {
            for (j, c_v) in c_row.iter_mut().enumerate() {
                let mut v = linalg::dot_with_backend(a_row, b.row(j), backend);
                if let Some(bias) = bias {
                    v += bias[j];
                }
                *c_v = v;
            }
        }
    });
    Ok(c)
}

/// `C = A·Bᵀ + bias`, panicking on shape mismatch.
pub fn score_bt(a: &Matrix, b: &Matrix, bias: Option<&[f32]>, threads: usize) -> Matrix {
    try_score_bt(a, b, bias, threads).expect("score_bt shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// Width of [`linalg::dot`]'s lane accumulator, and the number of
/// hidden rows the fused head kernel reduces together.
pub(crate) const LANES: usize = 8;

/// Items the fused head kernel carries through one layer before the
/// next, so each layer's per-block set-up is paid once per batch.
pub(crate) const BATCH: usize = 16;

/// One borrowed dense layer of a rating head: `y = act(W·x + b)`.
#[derive(Debug, Clone, Copy)]
pub struct HeadLayer<'a> {
    /// Weights, `out x in`.
    pub w: &'a Matrix,
    /// Bias, length `out`.
    pub b: &'a [f32],
    /// Activation applied after the bias.
    pub act: Act,
}

/// Geometry of one packed layer. The layer reads its per-item input `x`
/// from position `off` of its full `k`-wide input (`off` is the user
/// width for layer 1 and 0 after it); positions before `off` are folded
/// into the packed start lanes. Derived fields are computed once, at
/// packing time, so the per-item loop only reads them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedLayer {
    pub(crate) off: usize,
    pub(crate) k: usize,
    pub(crate) out: usize,
    pub(crate) act: Act,
    /// Start of the layer's blocks in [`MlpHead::packed`], and their length.
    pub(crate) base: usize,
    pub(crate) len: usize,
    /// First full chunk holding per-item input, and how many do.
    pub(crate) first_chunk: usize,
    pub(crate) chunks: usize,
    /// User lanes of the first per-item chunk when user and item share
    /// it (0 when the chunk is all item).
    pub(crate) lead: usize,
    /// Offset in `x` of the first scalar-tail input, and how many there are.
    pub(crate) tail_x: usize,
    pub(crate) tails: usize,
    /// Block layouts for 8 rows and for one row.
    pub(crate) p8: BlockParts,
    pub(crate) p1: BlockParts,
}

/// Where each part of a packed block of `rows` hidden rows starts. A
/// block is `[chunk weights | tail weights | start lanes | start tails |
/// bias]`: chunk weights are chunk-major, then row, then lane; tail
/// weights are position-major, then row; start lanes are 8 per row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockParts {
    pub(crate) tail_w: usize,
    pub(crate) lanes: usize,
    pub(crate) tails: usize,
    pub(crate) bias: usize,
    pub(crate) len: usize,
}

impl BlockParts {
    fn new(rows: usize, chunks: usize, tails: usize) -> BlockParts {
        let tail_w = rows * LANES * chunks;
        let lanes = tail_w + rows * tails;
        let tails = lanes + rows * LANES;
        let bias = tails + rows;
        BlockParts {
            tail_w,
            lanes,
            tails,
            bias,
            len: bias + rows,
        }
    }
}

impl PackedLayer {
    fn new(off: usize, k: usize, out: usize, act: Act, base: usize) -> PackedLayer {
        let main = k - k % LANES;
        let first_chunk = off.min(main) / LANES;
        let chunks = main / LANES - first_chunk;
        let tail_start = main.max(off);
        let tails = k - tail_start;
        let (p8, p1) = (
            BlockParts::new(LANES, chunks, tails),
            BlockParts::new(1, chunks, tails),
        );
        PackedLayer {
            off,
            k,
            out,
            act,
            base,
            len: out / LANES * p8.len + out % LANES * p1.len,
            first_chunk,
            chunks,
            lead: if chunks > 0 { off % LANES } else { 0 },
            tail_x: tail_start - off,
            tails,
            p8,
            p1,
        }
    }

    #[inline]
    pub(crate) fn parts(&self, rows: usize) -> BlockParts {
        if rows == LANES {
            self.p8
        } else {
            self.p1
        }
    }

    /// Offset in `x` of full chunk `ci` (counted from `first_chunk`);
    /// not meaningful for a shared chunk, which goes through
    /// [`Self::lead_chunk`].
    #[inline]
    pub(crate) fn chunk_x(&self, ci: usize) -> usize {
        (self.first_chunk + ci) * LANES - self.off
    }

    /// The shared chunk's item values in its item lanes, `-0.0` in its
    /// user lanes. Those lanes are packed with `+0.0` weights, so they
    /// add `-0.0 * +0.0 = -0.0` — the exact additive identity — and
    /// each lane keeps its tape sequence.
    #[inline]
    pub(crate) fn lead_chunk(&self, x: &[f32]) -> [f32; LANES] {
        let mut c = [-0.0f32; LANES];
        if self.lead > 0 {
            c[self.lead..].copy_from_slice(&x[..LANES - self.lead]);
        }
        c
    }

    /// Blocks in the layer: full blocks of 8 rows, then one block per
    /// remaining row.
    #[inline]
    pub(crate) fn num_blocks(&self) -> usize {
        self.out / LANES + self.out % LANES
    }

    /// `(first row, rows, offset from base)` of block `b`.
    #[inline]
    pub(crate) fn block(&self, b: usize) -> (usize, usize, usize) {
        let full = self.out / LANES;
        if b < full {
            (b * LANES, LANES, b * self.p8.len)
        } else {
            let r = b - full;
            (full * LANES + r, 1, full * self.p8.len + r * self.p1.len)
        }
    }
}

/// An MLP rating head packed for one user: the layer weights re-laid
/// out in blocks of 8 hidden rows, and each layer-1 row's lane sums and
/// tail over the user's part of `[u ‖ i]` (see the module docs for why
/// resuming from them is exact). Built once per request; the model
/// itself stores no packed state.
#[derive(Debug, Clone)]
pub struct MlpHead {
    layers: Vec<PackedLayer>,
    packed: Vec<f32>,
    item_dim: usize,
    width: usize,
}

impl MlpHead {
    /// Packs `layers` (application order; the last must output one
    /// value) for the user row `user`, which fills the first
    /// `user.len()` inputs of layer 1.
    ///
    /// # Errors
    /// An empty stack, layer 1 narrower than the user row, a bias of
    /// the wrong length, consecutive layers that do not chain, or a last
    /// layer that does not output exactly one value.
    pub fn try_new<'a>(
        layers: impl IntoIterator<Item = HeadLayer<'a>>,
        user: &[f32],
    ) -> TensorResult<MlpHead> {
        let mut head = MlpHead {
            layers: Vec::new(),
            packed: Vec::new(),
            item_dim: 0,
            width: 0,
        };
        for (li, layer) in layers.into_iter().enumerate() {
            let (out, k) = layer.w.shape();
            let off = if li == 0 { user.len() } else { 0 };
            let want = head.layers.last().map_or(off, |p: &PackedLayer| p.out);
            if (li == 0 && k < off) || (li > 0 && k != want) {
                return Err(ShapeError::MatMul {
                    lhs: (1, want),
                    rhs: (k, out),
                });
            }
            if layer.b.len() != out {
                return Err(ShapeError::Mismatch {
                    lhs: (layer.b.len(), 1),
                    rhs: (out, 1),
                    op: "mlp head bias",
                });
            }
            let l = PackedLayer::new(off, k, out, layer.act, head.packed.len());
            head.packed.resize(l.base + l.len, 0.0);
            pack_layer(&l, layer, user, &mut head.packed[l.base..]);
            if li == 0 {
                head.item_dim = k - off;
            }
            head.width = head.width.max(out);
            head.layers.push(l);
        }
        match head.layers.last() {
            None => Err(ShapeError::Empty { op: "mlp head" }),
            Some(l) if l.out != 1 => Err(ShapeError::Mismatch {
                lhs: (l.out, 1),
                rhs: (1, 1),
                op: "mlp head output",
            }),
            Some(_) => Ok(head),
        }
    }

    /// Width of the item rows the head scores.
    pub fn item_dim(&self) -> usize {
        self.item_dim
    }

    /// Scratch floats one [`score_mlp_head`] call needs.
    pub fn scratch_len(&self) -> usize {
        2 * BATCH * self.width
    }
}

/// Lays one layer out in blocks (see [`BlockParts`]) and computes its
/// start state: for layer 1, every row's lane sums and tail over the
/// user positions, added in [`linalg::dot`]'s order; zeros otherwise.
fn pack_layer(l: &PackedLayer, layer: HeadLayer<'_>, user: &[f32], dst: &mut [f32]) {
    let main = l.k - l.k % LANES;
    let tail_p = main.max(l.off);
    for b in 0..l.num_blocks() {
        let (r0, rows, at) = l.block(b);
        let p = l.parts(rows);
        let blk = &mut dst[at..at + p.len];
        for r in 0..rows {
            let w = layer.w.row(r0 + r);
            for ci in 0..l.chunks {
                let c = (l.first_chunk + ci) * LANES;
                let lanes = &mut blk[(ci * rows + r) * LANES..][..LANES];
                for (lane, (&wv, pos)) in lanes.iter_mut().zip(w[c..c + LANES].iter().zip(c..)) {
                    *lane = if pos < l.off { 0.0 } else { wv };
                }
            }
            for t in 0..l.tails {
                blk[p.tail_w + t * rows + r] = w[tail_p + t];
            }
            let lanes = &mut blk[p.lanes + r * LANES..][..LANES];
            for (uc, wc) in user[..l.off.min(main)]
                .chunks(LANES)
                .zip(w.chunks_exact(LANES))
            {
                for ((lane, &uv), &wv) in lanes.iter_mut().zip(uc).zip(wc) {
                    *lane += uv * wv;
                }
            }
            let mut tail = 0.0f32;
            for pos in main..l.off.max(main) {
                tail += user[pos] * w[pos];
            }
            blk[p.tails + r] = tail;
            blk[p.bias + r] = layer.b[r0 + r];
        }
    }
}

/// Scores one item row per element of `out` through `head`: `out[j]`
/// is bit-identical to running `[user ‖ rows[j]]` through the layer
/// stack with [`try_score_bt`] and [`Act::apply`]. Allocation-, lock-
/// and IO-free; `scratch` must hold [`MlpHead::scratch_len`] floats.
///
/// # Errors
/// Fewer or more rows than `out` has elements, a row whose width is not
/// [`MlpHead::item_dim`], or a short `scratch`.
pub fn score_mlp_head<'r>(
    head: &MlpHead,
    rows: impl IntoIterator<Item = &'r [f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
) -> TensorResult<()> {
    score_mlp_head_with_backend(head, rows, out, scratch, dispatch::backend())
}

/// [`score_mlp_head`] with an explicit backend request (degrades to
/// scalar when the CPU lacks AVX2). Bit-identical across backends.
pub fn score_mlp_head_with_backend<'r>(
    head: &MlpHead,
    rows: impl IntoIterator<Item = &'r [f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
    backend: Backend,
) -> TensorResult<()> {
    #[cfg(target_arch = "x86_64")]
    if dispatch::resolve(backend) == Backend::Avx2 {
        // SAFETY: `resolve` returns Avx2 only when the guarding dispatch
        // check (`detect_cpu`) saw avx2+fma+f16c on this CPU.
        return unsafe { crate::simd::score_mlp_head_avx2(head, rows.into_iter(), out, scratch) };
    }
    let _ = backend;
    drive_head(head, rows.into_iter(), out, scratch, layer_scalar)
}

/// The backend-independent item loop: checks the rows, then carries
/// batches of up to [`BATCH`] items through the stack one layer at a
/// time, ping-ponging between the two halves of `scratch`.
#[inline(always)]
pub(crate) fn drive_head<'r>(
    head: &MlpHead,
    mut rows: impl Iterator<Item = &'r [f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
    // `layer(l, packed, xs, y)` runs one layer over a batch, writing
    // input j's `l.out` outputs to `y[j * l.out..]`.
    mut layer: impl FnMut(&PackedLayer, &[f32], &[&[f32]], &mut [f32]),
) -> TensorResult<()> {
    let half = BATCH * head.width;
    if scratch.len() < 2 * half {
        return Err(ShapeError::Mismatch {
            lhs: (scratch.len(), 1),
            rhs: (2 * half, 1),
            op: "mlp head scratch",
        });
    }
    let Some((first, rest)) = head.layers.split_first() else {
        return Err(ShapeError::Empty { op: "mlp head" });
    };
    let packed_of = |l: &PackedLayer| &head.packed[l.base..l.base + l.len];
    let (mut cur, mut next) = scratch[..2 * half].split_at_mut(half);
    let want = out.len();
    for batch in out.chunks_mut(BATCH) {
        let n = batch.len();
        let mut xs: [&[f32]; BATCH] = [&[]; BATCH];
        for x in &mut xs[..n] {
            let row = rows.next().ok_or(ShapeError::Mismatch {
                lhs: (want, 1),
                rhs: (0, 1),
                op: "mlp head rows",
            })?;
            if row.len() != head.item_dim {
                return Err(ShapeError::Mismatch {
                    lhs: (1, row.len()),
                    rhs: (1, head.item_dim),
                    op: "mlp head item row",
                });
            }
            *x = row;
        }
        layer(first, packed_of(first), &xs[..n], &mut cur[..n * first.out]);
        for l in rest {
            let hs: [&[f32]; BATCH] = std::array::from_fn(|j| {
                if j < n {
                    &cur[j * l.k..(j + 1) * l.k]
                } else {
                    &[]
                }
            });
            layer(l, packed_of(l), &hs[..n], &mut next[..n * l.out]);
            std::mem::swap(&mut cur, &mut next);
        }
        batch.copy_from_slice(&cur[..n]);
    }
    if rows.next().is_some() {
        return Err(ShapeError::Mismatch {
            lhs: (out.len(), 1),
            rhs: (out.len() + 1, 1),
            op: "mlp head rows",
        });
    }
    Ok(())
}

/// `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`, [`linalg::dot`]'s lane order.
#[inline(always)]
pub(crate) fn reduce_lanes(l: &[f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// One packed row, resumed from its start lanes and tail.
#[inline(always)]
fn row_scalar(
    l: &PackedLayer,
    blk: &[f32],
    rows: usize,
    r: usize,
    x: &[f32],
    lead: &[f32; LANES],
) -> f32 {
    let p = l.parts(rows);
    let mut lanes = [0.0f32; LANES];
    lanes.copy_from_slice(&blk[p.lanes + r * LANES..][..LANES]);
    for ci in 0..l.chunks {
        let xs = if ci == 0 && l.lead > 0 {
            &lead[..]
        } else {
            &x[l.chunk_x(ci)..][..LANES]
        };
        let w = &blk[(ci * rows + r) * LANES..][..LANES];
        for ((lane, &xv), &wv) in lanes.iter_mut().zip(xs).zip(w) {
            *lane += xv * wv;
        }
    }
    let mut tail = blk[p.tails + r];
    for t in 0..l.tails {
        tail += x[l.tail_x + t] * blk[p.tail_w + t * rows + r];
    }
    let v = reduce_lanes(&lanes) + tail;
    l.act.apply(v + blk[p.bias + r])
}

fn layer_scalar(l: &PackedLayer, packed: &[f32], xs: &[&[f32]], y: &mut [f32]) {
    for b in 0..l.num_blocks() {
        let (r0, rows, at) = l.block(b);
        let blk = &packed[at..at + l.parts(rows).len];
        for (x, y) in xs.iter().zip(y.chunks_exact_mut(l.out)) {
            let lead = l.lead_chunk(x);
            for r in 0..rows {
                y[r0 + r] = row_scalar(l, blk, rows, r, x, &lead);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: f32) -> Vec<f32> {
        let mut v = seed;
        (0..n)
            .map(|_| {
                v = (v * 1.9 + 0.13).fract() - 0.5;
                v
            })
            .collect()
    }

    #[test]
    fn matches_per_row_matvec_bitwise() {
        let (m, n, k) = (7, 13, 33);
        let a = Matrix::from_vec(m, k, pseudo(m * k, 0.3)).unwrap();
        let b = Matrix::from_vec(n, k, pseudo(n * k, 0.7)).unwrap();
        let bias = pseudo(n, 0.11);
        let c = score_bt(&a, &b, Some(&bias), 1);
        for i in 0..m {
            // The tape path: y = matvec(B, x); y += 1.0 * bias.
            let mut y = linalg::matvec(&b, a.row(i));
            linalg::axpy(1.0, &bias, &mut y);
            for (j, want) in y.iter().enumerate() {
                assert_eq!(
                    c.get(i, j).to_bits(),
                    want.to_bits(),
                    "element ({i},{j}) differs from the tape order"
                );
            }
        }
    }

    #[test]
    fn bit_identical_at_any_thread_count() {
        let (m, n, k) = (23, 57, 64);
        let a = Matrix::from_vec(m, k, pseudo(m * k, 0.21)).unwrap();
        let b = Matrix::from_vec(n, k, pseudo(n * k, 0.81)).unwrap();
        let base = score_bt(&a, &b, None, 1);
        for threads in [2usize, 3, 4, 8] {
            let c = score_bt(&a, &b, None, threads);
            assert_eq!(
                base.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn no_bias_equals_zero_free_sum() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let c = score_bt(&a, &b, None, 1);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 3.0, 4.0, 7.0]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(try_score_bt(&a, &b, None, 1).is_err());
        let b2 = Matrix::zeros(4, 3);
        let bias = vec![0.0; 3]; // wrong: needs len 4
        assert!(try_score_bt(&a, &b2, Some(&bias), 1).is_err());
    }

    /// `[user ‖ item]` through `score_bt` + `Act::apply`, layer by layer.
    fn stack(layers: &[HeadLayer<'_>], user: &[f32], items: &Matrix) -> Vec<u32> {
        let mut h = Matrix::zeros(items.rows(), user.len() + items.cols());
        for r in 0..items.rows() {
            h.row_mut(r)[..user.len()].copy_from_slice(user);
            h.row_mut(r)[user.len()..].copy_from_slice(items.row(r));
        }
        for l in layers {
            let mut y = score_bt(&h, l.w, Some(l.b), 1);
            for v in y.as_mut_slice() {
                *v = l.act.apply(*v);
            }
            h = y;
        }
        h.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn fused(layers: &[HeadLayer<'_>], user: &[f32], items: &Matrix, backend: Backend) -> Vec<u32> {
        let head = MlpHead::try_new(layers.iter().copied(), user).unwrap();
        let mut out = vec![0.0; items.rows()];
        let mut scratch = vec![0.0; head.scratch_len()];
        score_mlp_head_with_backend(&head, items.iter_rows(), &mut out, &mut scratch, backend)
            .unwrap();
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// Infinite inputs make NaN pre-activations (`inf - inf`, `0 * inf`);
    /// ReLU maps them to `+0.0` on both backends exactly as the stack
    /// does, and more items than one batch exercise the batch seams.
    #[test]
    fn fused_head_matches_stack_through_nan_relu() {
        let (du, di, hidden) = (5, 11, 9);
        let w1 = Matrix::from_vec(hidden, du + di, pseudo(hidden * (du + di), 0.37)).unwrap();
        let b1 = pseudo(hidden, 0.59);
        let w2 = Matrix::from_vec(1, hidden, pseudo(hidden, 0.23)).unwrap();
        let layers = [
            HeadLayer {
                w: &w1,
                b: &b1,
                act: Act::Relu,
            },
            HeadLayer {
                w: &w2,
                b: &[0.125],
                act: Act::Identity,
            },
        ];
        let user = pseudo(du, 0.71);
        let n = 3 * BATCH + 5;
        let mut items = Matrix::from_vec(n, di, pseudo(n * di, 0.13)).unwrap();
        items.row_mut(1)[0] = f32::INFINITY;
        items.row_mut(2)[3] = f32::NEG_INFINITY;
        items.row_mut(2)[9] = f32::INFINITY;
        let want = stack(&layers, &user, &items);
        for backend in [Backend::Scalar, Backend::Avx2] {
            assert_eq!(fused(&layers, &user, &items, backend), want, "{backend:?}");
        }
    }

    #[test]
    fn fused_head_rejects_bad_shapes() {
        let w1 = Matrix::zeros(4, 6);
        let w2 = Matrix::zeros(1, 4);
        let layer = |w, b| HeadLayer {
            w,
            b,
            act: Act::Identity,
        };
        let ok = [layer(&w1, &[0.0; 4][..]), layer(&w2, &[0.0][..])];
        // The user row is wider than layer 1's input.
        assert!(MlpHead::try_new(ok, &[0.0; 7]).is_err());
        // Bias length, a broken chain, a non-scalar output, no layers.
        assert!(MlpHead::try_new([layer(&w1, &[0.0; 3][..]), ok[1]], &[0.0; 2]).is_err());
        assert!(MlpHead::try_new([ok[0], layer(&w1, &[0.0; 4][..])], &[0.0; 2]).is_err());
        assert!(MlpHead::try_new([ok[0]], &[0.0; 2]).is_err());
        assert!(MlpHead::try_new([], &[0.0; 2]).is_err());

        let head = MlpHead::try_new(ok, &[0.0; 2]).unwrap();
        assert_eq!(head.item_dim(), 4);
        let rows = [[0.0f32; 4]; 3];
        let mut scratch = vec![0.0; head.scratch_len()];
        let mut out = [0.0f32; 3];
        let rows_of = |n: usize| rows[..n].iter().map(|r| &r[..]);
        assert!(score_mlp_head(&head, rows_of(3), &mut out, &mut scratch).is_ok());
        assert!(score_mlp_head(&head, rows_of(2), &mut out, &mut scratch).is_err());
        assert!(score_mlp_head(&head, rows_of(3), &mut out[..2], &mut scratch).is_err());
        let short = [[0.0f32; 3]; 3];
        let short_rows = short.iter().map(|r| &r[..]);
        assert!(score_mlp_head(&head, short_rows, &mut out, &mut scratch).is_err());
        assert!(score_mlp_head(&head, rows_of(3), &mut out, &mut scratch[..1]).is_err());
    }
}
