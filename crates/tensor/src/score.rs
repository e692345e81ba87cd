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
//! serving (SceneRec's Eq. 14 over `[u ‖ i]`). It scores a *batch* of
//! users against the same item rows and produces exactly the floats a
//! `try_score_bt` + [`Act::apply`] stack would, layer by layer, while
//! doing each user's share of layer 1 once per [`MlpHead`] instead of
//! once per item. Two facts keep it exact:
//!
//! * **The per-lane prefix invariant.** [`linalg::dot`] keeps 8
//!   independent lane sums — input `j < main` goes to lane `j % 8`, in
//!   ascending `j` — plus a serial scalar tail over the inputs past
//!   `main`, starting at `0.0`. The user occupies the leading input
//!   positions, so every lane's (and the tail's) user contributions come
//!   first in its own sequence. Saving each hidden row's 8 lanes and
//!   tail after the user positions, and resuming from them with only
//!   the item positions, replays every lane's exact sequence of adds —
//!   for any user width, including a chunk shared by user and item
//!   values and an input that ends in a scalar tail.
//! * **The item-lane layout.** Items are transposed in tiles of 8, so
//!   one AVX2 register holds the same input position for 8 items. Each
//!   item's lane `l` then starts from the user's start lane, adds
//!   `x[j] * w[r][j]` for its positions in ascending order (mul, then
//!   add — never FMA), and the 8 lanes are reduced
//!   `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))` with plain vertical adds,
//!   then `+ tail`, `+ bias` and the activation, as on the tape.
//!
//! **Shared layer-1 products.** A product `x[j] * w[r][j]` at an item
//! position does not depend on the user, so the kernel builds it once
//! per tile for the whole batch: for each hidden row `r` it forms the
//! row's products `P[j] = X[j] * w[r][j]` (one register per input
//! position: 1 KB at item width 32, hot in L1), then walks the batch's
//! users, each starting from its own start lanes and adding
//! `acc[l] + P[c*8+l]` in ascending `c`. That is the same product and
//! the same add, in the same order, as a per-user loop that multiplies
//! and then adds at each position, so every float is unchanged. Only
//! one row's products are live at a time, so they stay in L1. The AVX2
//! twin also adds the first user's products straight from registers
//! and stores them only during the second user's pass, so a batch of
//! one runs exactly the per-user loop's operations. Each user's layer-1
//! outputs land in its own output tile; the later layers run per user
//! through the same routine with zero start lanes (`0.0 + P` is the sum
//! a zero-started accumulator forms). A tile is transposed once and
//! reused by every user of the batch; the caller's scratch holds a few
//! tiles plus one layer-1 output tile per user.

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
/// items one item-lane tile of the fused head kernel carries.
pub(crate) const LANES: usize = 8;

/// Floats one user's layer-1 start state takes per hidden row: the 8
/// lane sums and the scalar tail over the user positions.
pub(crate) const START: usize = LANES + 1;

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

/// Geometry of one packed layer. The layer reads its input from an
/// item-lane tile of `chunks * 8 + tails` rows of 8 floats: row `c*8+l`
/// feeds lane `l` of [`linalg::dot`]'s accumulator in chunk `c`, row
/// `chunks*8 + t` feeds the scalar tail. For layer 1 the tile starts
/// with `lead` rows of `-0.0` (the user positions of a chunk shared by
/// user and item, packed with `+0.0` weights) and then the item
/// positions; every earlier user position is folded into the per-user
/// start state. Later layers read the previous layer's output tile
/// (`lead == 0`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedLayer {
    pub(crate) out: usize,
    pub(crate) act: Act,
    pub(crate) chunks: usize,
    pub(crate) tails: usize,
    pub(crate) lead: usize,
    /// Start of the layer's row weights in [`MlpHead::packed`]: `out`
    /// rows of [`Self::row_len`] floats, then the `out` biases.
    base: usize,
}

impl PackedLayer {
    /// Input-tile rows, and packed weights per hidden row.
    #[inline]
    pub(crate) fn row_len(&self) -> usize {
        self.chunks * LANES + self.tails
    }

    fn len(&self) -> usize {
        self.out * (self.row_len() + 1)
    }
}

/// An MLP rating head packed for a batch of users: each layer's rows
/// re-laid out for the item-lane kernel, and for every user each
/// layer-1 row's lane sums and tail over the user's part of `[u ‖ i]`
/// (see the module docs for why resuming from them is exact). Built
/// once per batch; the model itself stores no packed state.
#[derive(Debug, Clone)]
pub struct MlpHead {
    layers: Vec<PackedLayer>,
    packed: Vec<f32>,
    /// `users x out₁ x (8 lanes + tail)`.
    starts: Vec<f32>,
    users: usize,
    item_dim: usize,
    width: usize,
}

impl MlpHead {
    /// Packs `layers` (application order; the last must output one
    /// value) for the user rows `users`, each of which fills the first
    /// inputs of layer 1.
    ///
    /// # Errors
    /// No users or users of different widths, an empty stack, layer 1
    /// narrower than the user rows, a bias of the wrong length,
    /// consecutive layers that do not chain, or a last layer that does
    /// not output exactly one value.
    pub fn try_new<'a, 'u>(
        layers: impl IntoIterator<Item = HeadLayer<'a>>,
        users: impl IntoIterator<Item = &'u [f32]>,
    ) -> TensorResult<MlpHead> {
        let users: Vec<&[f32]> = users.into_iter().collect();
        let Some(du) = users.first().map(|u| u.len()) else {
            return Err(ShapeError::Empty {
                op: "mlp head users",
            });
        };
        if let Some(bad) = users.iter().find(|u| u.len() != du) {
            return Err(ShapeError::Mismatch {
                lhs: (1, bad.len()),
                rhs: (1, du),
                op: "mlp head user row",
            });
        }
        let mut head = MlpHead {
            layers: Vec::new(),
            packed: Vec::new(),
            starts: Vec::new(),
            users: users.len(),
            item_dim: 0,
            width: 0,
        };
        for (li, layer) in layers.into_iter().enumerate() {
            let (out, k) = layer.w.shape();
            let off = if li == 0 { du } else { 0 };
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
            let l = pack_layer(layer, off, &mut head.packed);
            if li == 0 {
                head.item_dim = k - off;
                head.starts = vec![0.0; users.len() * out * START];
                for (u, dst) in users.iter().zip(head.starts.chunks_exact_mut(out * START)) {
                    start_state(layer.w, u, dst);
                }
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

    /// Users the head was packed for.
    pub fn num_users(&self) -> usize {
        self.users
    }

    /// Scratch floats one [`score_mlp_head`] call needs: the layer-1
    /// input tile, one hidden row's product tile, every user's layer-1
    /// output tile (`users x out₁ x 8`) and two output tiles for the
    /// later layers.
    pub fn scratch_len(&self) -> usize {
        let Some(first) = self.layers.first() else {
            return 0;
        };
        let tile = first.row_len();
        LANES * (tile + tile.max(self.width) + self.users * first.out + 2 * self.width)
    }

    /// One layer's packed rows and its biases.
    fn weights(&self, l: &PackedLayer) -> (&[f32], &[f32]) {
        self.packed[l.base..l.base + l.len()].split_at(l.out * l.row_len())
    }
}

/// Appends one layer's packed rows and biases to `packed`: row `r` holds
/// its chunk weights lane by lane (`+0.0` at user positions of a shared
/// chunk) and then its tail weights.
fn pack_layer(layer: HeadLayer<'_>, off: usize, packed: &mut Vec<f32>) -> PackedLayer {
    let (out, k) = layer.w.shape();
    let main = k - k % LANES;
    let first_chunk = off.min(main) / LANES;
    let chunks = main / LANES - first_chunk;
    let tail_start = main.max(off);
    let l = PackedLayer {
        out,
        act: layer.act,
        chunks,
        tails: k - tail_start,
        lead: if chunks > 0 { off % LANES } else { 0 },
        base: packed.len(),
    };
    packed.reserve(l.len());
    for r in 0..out {
        let w = layer.w.row(r);
        let c0 = first_chunk * LANES;
        packed.extend((c0..main).map(|pos| if pos < off { 0.0 } else { w[pos] }));
        packed.extend_from_slice(&w[tail_start..]);
    }
    packed.extend_from_slice(layer.b);
    l
}

/// One user's layer-1 start state: every row's 8 lane sums and tail over
/// the user positions, added in [`linalg::dot`]'s order.
fn start_state(w: &Matrix, user: &[f32], dst: &mut [f32]) {
    let k = w.cols();
    let main = k - k % LANES;
    let off = user.len();
    for (r, st) in dst.chunks_exact_mut(START).enumerate() {
        let w = w.row(r);
        let (lanes, tail) = st.split_at_mut(LANES);
        for (uc, wc) in user[..off.min(main)]
            .chunks(LANES)
            .zip(w.chunks_exact(LANES))
        {
            for ((lane, &uv), &wv) in lanes.iter_mut().zip(uc).zip(wc) {
                *lane += uv * wv;
            }
        }
        let mut t = 0.0f32;
        for pos in main..off.max(main) {
            t += user[pos] * w[pos];
        }
        tail[0] = t;
    }
}

/// Scores every user of `head` against one item row per item: with `n`
/// rows, `out[u * n + j]` is bit-identical to running
/// `[user u ‖ rows[j]]` through the layer stack with [`try_score_bt`]
/// and [`Act::apply`]. Allocation-, lock- and IO-free; `scratch` must
/// hold [`MlpHead::scratch_len`] floats.
///
/// # Errors
/// An `out` whose length is not a multiple of [`MlpHead::num_users`],
/// fewer or more rows than `out.len() / num_users`, a row whose width
/// is not [`MlpHead::item_dim`], or a short `scratch`.
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
    drive_head(
        head,
        rows.into_iter(),
        out,
        scratch,
        layer_scalar,
        transpose_scalar,
    )
}

/// `tile[j * 8 + i] = xs[i][j]`: 8 item rows into item-lane order.
pub(crate) fn transpose_scalar(xs: &[&[f32]; LANES], tile: &mut [f32]) {
    for (j, dst) in tile.chunks_exact_mut(LANES).enumerate() {
        for (d, x) in dst.iter_mut().zip(xs) {
            *d = x[j];
        }
    }
}

/// The backend-independent tile loop: checks the shapes, then for each
/// tile of up to 8 items transposes their rows into the item-lane input
/// tile once, runs layer 1 for every user of the batch at once (shared
/// products), and carries each user's layer-1 output tile through the
/// later layers, ping-ponging between two output tiles in `scratch`. A
/// short last tile fills its pad lanes with copies of its last item,
/// computes them and discards them.
#[inline(always)]
pub(crate) fn drive_head<'r>(
    head: &MlpHead,
    mut rows: impl Iterator<Item = &'r [f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
    // `layer(l, w, bias, starts, x, prod, ys)` runs one layer over one
    // tile: `w` holds the layer's packed rows, `bias` its biases, `x`
    // the input tile and `prod` room for one row's product tile.
    // `starts` holds every user's start state (`users x out x 9`) and
    // `ys` receives one `out x 8` output tile per user; `None` means one
    // user with zero lanes and tail.
    mut layer: impl FnMut(&PackedLayer, &[f32], &[f32], Option<&[f32]>, &[f32], &mut [f32], &mut [f32]),
    // `transpose(xs, tile)` writes `tile[j * 8 + i] = xs[i][j]`.
    mut transpose: impl FnMut(&[&[f32]; LANES], &mut [f32]),
) -> TensorResult<()> {
    let Some(first) = head.layers.first() else {
        return Err(ShapeError::Empty { op: "mlp head" });
    };
    let need = head.scratch_len();
    if scratch.len() < need {
        return Err(ShapeError::Mismatch {
            lhs: (scratch.len(), 1),
            rhs: (need, 1),
            op: "mlp head scratch",
        });
    }
    if out.len() % head.users != 0 {
        return Err(ShapeError::Mismatch {
            lhs: (out.len(), 1),
            rhs: (head.users, 1),
            op: "mlp head out",
        });
    }
    let n = out.len() / head.users;
    let tile_len = LANES * first.row_len();
    let half = LANES * head.width;
    let (tile, rest) = scratch[..need].split_at_mut(tile_len);
    let (prod, rest) = rest.split_at_mut(tile_len.max(half));
    let (ys, rest) = rest.split_at_mut(head.users * first.out * LANES);
    let (ping, pong) = rest.split_at_mut(half);
    // The shared-chunk user lanes: `-0.0` inputs against `+0.0` weights
    // add `-0.0`, the exact additive identity.
    tile[..first.lead * LANES].fill(-0.0);
    let (w1, b1) = head.weights(first);
    for t0 in (0..n).step_by(LANES) {
        let m = (n - t0).min(LANES);
        let mut xs: [&[f32]; LANES] = [&[]; LANES];
        for (i, x) in xs.iter_mut().enumerate().take(m) {
            let row = rows.next().ok_or(ShapeError::Mismatch {
                lhs: (n, 1),
                rhs: (t0 + i, 1),
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
        // Pad lanes repeat the last row: computed, then discarded.
        let last = xs[m - 1];
        xs[m..].fill(last);
        transpose(&xs, &mut tile[first.lead * LANES..]);
        layer(first, w1, b1, Some(&head.starts), tile, prod, ys);
        for (u, y1) in ys.chunks_exact(first.out * LANES).enumerate() {
            let mut cur: &[f32] = y1;
            let (mut next, mut spare) = (&mut *ping, &mut *pong);
            for l in &head.layers[1..] {
                let (w, bias) = head.weights(l);
                let x = &cur[..l.row_len() * LANES];
                layer(l, w, bias, None, x, prod, &mut next[..l.out * LANES]);
                std::mem::swap(&mut next, &mut spare);
                cur = &*spare;
            }
            out[u * n + t0..u * n + t0 + m].copy_from_slice(&cur[..m]);
        }
    }
    if rows.next().is_some() {
        return Err(ShapeError::Mismatch {
            lhs: (n, 1),
            rhs: (n + 1, 1),
            op: "mlp head rows",
        });
    }
    Ok(())
}

/// `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`, [`linalg::dot`]'s lane order.
#[inline(always)]
fn reduce_lanes(l: &[f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The scalar layer: for each hidden row, the row's product tile, then
/// for each user every item lane replays [`linalg::dot`] over it,
/// resumed from the user's start state (see the module docs).
fn layer_scalar(
    l: &PackedLayer,
    w: &[f32],
    bias: &[f32],
    starts: Option<&[f32]>,
    x: &[f32],
    prod: &mut [f32],
    ys: &mut [f32],
) {
    let row_len = l.row_len();
    let main = l.chunks * LANES;
    let (x, prod) = (&x[..row_len * LANES], &mut prod[..row_len * LANES]);
    for (r, wr) in w.chunks_exact(row_len).enumerate() {
        for ((pv, xv), &wv) in prod
            .chunks_exact_mut(LANES)
            .zip(x.chunks_exact(LANES))
            .zip(wr)
        {
            for (p, &xi) in pv.iter_mut().zip(xv) {
                *p = xi * wv;
            }
        }
        for (u, yu) in ys.chunks_exact_mut(l.out * LANES).enumerate() {
            // `lanes[lane][item]`: dot's lane sums for all 8 items.
            let mut lanes = [[0.0f32; LANES]; LANES];
            let mut tail = [0.0f32; LANES];
            if let Some(s) = starts {
                let st = &s[(u * l.out + r) * START..][..START];
                for (lane, &sv) in lanes.iter_mut().zip(st) {
                    *lane = [sv; LANES];
                }
                tail = [st[LANES]; LANES];
            }
            for chunk in prod[..main * LANES].chunks_exact(LANES * LANES) {
                for (lane, pv) in lanes.iter_mut().zip(chunk.chunks_exact(LANES)) {
                    for (a, &p) in lane.iter_mut().zip(pv) {
                        *a += p;
                    }
                }
            }
            for pv in prod[main * LANES..].chunks_exact(LANES) {
                for (t, &p) in tail.iter_mut().zip(pv) {
                    *t += p;
                }
            }
            for (i, yv) in yu[r * LANES..(r + 1) * LANES].iter_mut().enumerate() {
                let v = reduce_lanes(&std::array::from_fn(|lane| lanes[lane][i])) + tail[i];
                *yv = l.act.apply(v + bias[r]);
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
        let head = MlpHead::try_new(layers.iter().copied(), [user]).unwrap();
        let mut out = vec![0.0; items.rows()];
        let mut scratch = vec![0.0; head.scratch_len()];
        score_mlp_head_with_backend(&head, items.iter_rows(), &mut out, &mut scratch, backend)
            .unwrap();
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// Infinite inputs make NaN pre-activations (`inf - inf`, `0 * inf`);
    /// ReLU maps them to `+0.0` on both backends exactly as the stack
    /// does, and more items than one tile exercise the tile seams and a
    /// short last tile.
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
        let n = 3 * LANES + 5;
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
        let u2 = [0.0f32; 2];
        // The user row is wider than layer 1's input.
        assert!(MlpHead::try_new(ok, [&[0.0; 7][..]]).is_err());
        // Bias length, a broken chain, a non-scalar output, no layers.
        assert!(MlpHead::try_new([layer(&w1, &[0.0; 3][..]), ok[1]], [&u2[..]]).is_err());
        assert!(MlpHead::try_new([ok[0], layer(&w1, &[0.0; 4][..])], [&u2[..]]).is_err());
        assert!(MlpHead::try_new([ok[0]], [&u2[..]]).is_err());
        assert!(MlpHead::try_new([], [&u2[..]]).is_err());
        // No users, and users of different widths.
        assert!(MlpHead::try_new(ok, std::iter::empty::<&[f32]>()).is_err());
        assert!(MlpHead::try_new(ok, [&u2[..], &[0.0; 3][..]]).is_err());

        let head = MlpHead::try_new(ok, [&u2[..]]).unwrap();
        assert_eq!(head.item_dim(), 4);
        assert_eq!(head.num_users(), 1);
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

        // Two users: `out` holds users x rows, a multiple of the batch.
        let pair = MlpHead::try_new(ok, [&u2[..], &u2[..]]).unwrap();
        let mut scratch2 = vec![0.0; pair.scratch_len()];
        let mut out2 = [0.0f32; 6];
        assert!(score_mlp_head(&pair, rows_of(3), &mut out2, &mut scratch2).is_ok());
        assert!(score_mlp_head(&pair, rows_of(3), &mut out2[..5], &mut scratch2).is_err());
        assert!(score_mlp_head(&pair, rows_of(2), &mut out2, &mut scratch2).is_err());
    }

    /// Each user of a batch gets its own layer-1 output tile (`out₁ x 8`
    /// floats), so the scratch grows with the batch; one float short is
    /// a shape error, never a panic, on either backend.
    #[test]
    fn scratch_grows_with_users_and_short_scratch_is_a_shape_error() {
        let (du, di, hidden) = (3, 13, 5);
        let w1 = Matrix::from_vec(hidden, du + di, pseudo(hidden * (du + di), 0.41)).unwrap();
        let b1 = pseudo(hidden, 0.17);
        let w2 = Matrix::from_vec(1, hidden, pseudo(hidden, 0.29)).unwrap();
        let layers = [
            HeadLayer {
                w: &w1,
                b: &b1,
                act: Act::Relu,
            },
            HeadLayer {
                w: &w2,
                b: &[0.5],
                act: Act::Identity,
            },
        ];
        let users: Vec<Vec<f32>> = (0..64).map(|u| pseudo(du, 0.01 * u as f32 + 0.3)).collect();
        let head_of =
            |b: usize| MlpHead::try_new(layers, users[..b].iter().map(|u| &u[..])).unwrap();
        let one = head_of(1).scratch_len();
        for b in [2usize, 7, 64] {
            assert_eq!(
                head_of(b).scratch_len(),
                one + (b - 1) * hidden * LANES,
                "{b} users"
            );
        }
        let n = 2 * LANES + 3;
        let items = Matrix::from_vec(n, di, pseudo(n * di, 0.53)).unwrap();
        for b in [2usize, 64] {
            let head = head_of(b);
            let mut out = vec![0.0; b * n];
            let mut scratch = vec![0.0; head.scratch_len() - 1];
            for backend in [Backend::Scalar, Backend::Avx2] {
                let r = score_mlp_head_with_backend(
                    &head,
                    items.iter_rows(),
                    &mut out,
                    &mut scratch,
                    backend,
                );
                assert!(
                    matches!(
                        r,
                        Err(ShapeError::Mismatch {
                            op: "mlp head scratch",
                            ..
                        })
                    ),
                    "{b} users {backend:?}: {r:?}"
                );
            }
        }
    }
}
