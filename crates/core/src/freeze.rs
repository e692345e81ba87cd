//! Frozen-model export: the dense, tape-free snapshot a serving engine
//! loads.
//!
//! Training-side scoring rebuilds the full Eq. 1–14 computation graph per
//! request; at serving time the graph-structured parts are **pure
//! functions of the trained parameters** — the user representation `m_u`
//! (Eq. 1) and the fused item representation `m_i` (Eq. 13) never depend
//! on the candidate pairing. Freezing evaluates them once per entity on
//! the ordinary tape (so the values are bit-identical to what
//! `score_values` would compute) and stores them as contiguous row-major
//! matrices, leaving only the pairing head (Eq. 14's rating MLP, or a dot
//! product for embedding baselines) to run per request.
//!
//! The serving engine scores the head with kernels whose float order
//! matches the tape's `affine` operator — `linalg::dot` for dot heads,
//! the fused `scenerec_tensor::score::score_mlp_head` for MLP heads — so
//! a frozen `f32` engine reproduces `PairwiseModel::score_values` **bit
//! for bit** (see `tests/serving_parity.rs`).
//!
//! # Quantized snapshots
//!
//! The entity matrices — by far the bulk of a frozen model — can be
//! re-encoded at lower precision with [`FrozenModel::quantize`]:
//!
//! * [`Precision::F16`] stores binary16 bits; widening back is exact, so
//!   an f16 engine is deterministic and its only error vs. f32 is the
//!   one-time narrowing at freeze time.
//! * [`Precision::Int8`] stores per-row affine codes; the engine scores
//!   dot heads in exact integer arithmetic (see
//!   `scenerec_tensor::quant`), bounding the error per element while
//!   staying bit-identical across backends, threads and worker counts.
//!
//! Heads always stay `f32` — they are tiny compared to the matrices.
//! [`FrozenSnapshot`] is the flat serde bridge that carries any of the
//! three precisions through checkpoint v4's `frozen` section.

use scenerec_autodiff::Act;
use scenerec_tensor::quant::{HalfMatrix, Int8Matrix};
use scenerec_tensor::score::HeadLayer;
use scenerec_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Numeric precision of a frozen entity matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// Full single precision — exact tape parity.
    F32,
    /// IEEE 754 binary16 bit patterns, widened exactly at score time.
    F16,
    /// Per-row affine int8 codes, scored in exact integer arithmetic.
    Int8,
}

impl Precision {
    /// Stable lowercase name used in manifests, spans and snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }

    /// Compact tag for composite cache keys.
    pub fn tag(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
            Precision::Int8 => 2,
        }
    }

    /// Inverse of [`Precision::name`].
    ///
    /// # Errors
    /// Unknown precision names (corrupt or future snapshots).
    pub fn parse(s: &str) -> Result<Precision, String> {
        match s {
            "f32" => Ok(Precision::F32),
            "f16" => Ok(Precision::F16),
            "int8" => Ok(Precision::Int8),
            other => Err(format!("unknown precision {other:?}")),
        }
    }
}

/// A frozen entity matrix at one of the three storage precisions.
#[derive(Debug, Clone)]
pub enum EntityMatrix {
    /// Row-major `f32` (the freeze-time original).
    F32(Matrix),
    /// Binary16 bits.
    F16(HalfMatrix),
    /// Per-row affine int8 codes.
    Int8(Int8Matrix),
}

impl EntityMatrix {
    pub fn rows(&self) -> usize {
        match self {
            EntityMatrix::F32(m) => m.rows(),
            EntityMatrix::F16(m) => m.rows(),
            EntityMatrix::Int8(m) => m.rows(),
        }
    }

    pub fn cols(&self) -> usize {
        match self {
            EntityMatrix::F32(m) => m.cols(),
            EntityMatrix::F16(m) => m.cols(),
            EntityMatrix::Int8(m) => m.cols(),
        }
    }

    pub fn precision(&self) -> Precision {
        match self {
            EntityMatrix::F32(_) => Precision::F32,
            EntityMatrix::F16(_) => Precision::F16,
            EntityMatrix::Int8(_) => Precision::Int8,
        }
    }

    /// The dense `f32` view when stored at full precision.
    pub fn as_f32(&self) -> Option<&Matrix> {
        match self {
            EntityMatrix::F32(m) => Some(m),
            _ => None,
        }
    }

    /// Expands row `r` to `f32` into `out` (`out.len() == cols`):
    /// a copy for f32, exact widening for f16, dequantization for int8.
    pub fn expand_row_into(&self, r: usize, out: &mut [f32]) {
        match self {
            EntityMatrix::F32(m) => out.copy_from_slice(m.row(r)),
            EntityMatrix::F16(m) => m.widen_row_into(r, out),
            EntityMatrix::Int8(m) => m.dequantize_row_into(r, out),
        }
    }

    /// Expands the whole matrix to dense `f32` (copy / widen /
    /// dequantize per [`EntityMatrix::expand_row_into`]).
    pub fn to_f32(&self) -> Matrix {
        match self {
            EntityMatrix::F32(m) => m.clone(),
            EntityMatrix::F16(m) => m.to_matrix(),
            EntityMatrix::Int8(m) => m.to_matrix(),
        }
    }

    /// Copies rows `start..end` into a new matrix at the same precision.
    ///
    /// This is the shard-slicing primitive: the row payload is copied
    /// verbatim (f32 values, f16 bits, int8 codes plus the *per-row*
    /// scales and zero points), so scoring row `start + r` of the slice
    /// is bit-identical to scoring row `start + r` of the original at
    /// every precision.
    ///
    /// # Errors
    /// When `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<EntityMatrix, String> {
        if start > end || end > self.rows() {
            return Err(format!(
                "row slice {start}..{end} out of bounds for {} rows",
                self.rows()
            ));
        }
        let cols = self.cols();
        match self {
            EntityMatrix::F32(m) => {
                let data = m.as_slice()[start * cols..end * cols].to_vec();
                Matrix::from_vec(end - start, cols, data)
                    .map(EntityMatrix::F32)
                    .map_err(|e| e.to_string())
            }
            EntityMatrix::F16(m) => {
                let bits = m.as_bits()[start * cols..end * cols].to_vec();
                HalfMatrix::from_parts(end - start, cols, bits).map(EntityMatrix::F16)
            }
            EntityMatrix::Int8(m) => {
                let codes = m.codes()[start * cols..end * cols].to_vec();
                let scales = m.scales()[start..end].to_vec();
                let zero_points = m.zero_points()[start..end].to_vec();
                Int8Matrix::from_parts(end - start, cols, codes, scales, zero_points)
                    .map(EntityMatrix::Int8)
            }
        }
    }
}

/// One frozen dense layer `y = act(W x + b)`.
#[derive(Debug, Clone)]
pub struct FrozenLayer {
    /// Weight matrix, `out_dim x in_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
    /// Activation applied element-wise after the affine map.
    pub act: Act,
}

impl FrozenLayer {
    /// The layer as the fused head kernel's borrowed view.
    pub fn as_head_layer(&self) -> HeadLayer<'_> {
        HeadLayer {
            w: &self.w,
            b: &self.b,
            act: self.act,
        }
    }
}

/// How a frozen model pairs a user row with an item row.
#[derive(Debug, Clone)]
pub enum FrozenHead {
    /// `score = u · i + bias[item]` — embedding-dot baselines (BPR-MF).
    DotBias {
        /// Per-item additive bias (zeros when the model has none).
        bias: Vec<f32>,
    },
    /// `score = MLP([u ‖ i])` — SceneRec's Eq. 14 rating head.
    Mlp {
        /// Layers in application order; the last outputs a single scalar.
        layers: Vec<FrozenLayer>,
    },
}

impl FrozenHead {
    /// Restricts the head to items `start..end` of the catalog.
    ///
    /// A dot head carries per-item bias, so the slice keeps exactly the
    /// window's entries (item `start + r` of the original becomes local
    /// item `r`). An MLP head has no per-item state and is cloned whole.
    ///
    /// # Errors
    /// When a dot head's bias does not cover `start..end`.
    pub fn slice_items(&self, start: usize, end: usize) -> Result<FrozenHead, String> {
        match self {
            FrozenHead::DotBias { bias } => {
                if start > end || end > bias.len() {
                    return Err(format!(
                        "bias slice {start}..{end} out of bounds for {} items",
                        bias.len()
                    ));
                }
                Ok(FrozenHead::DotBias {
                    bias: bias[start..end].to_vec(),
                })
            }
            FrozenHead::Mlp { layers } => Ok(FrozenHead::Mlp {
                layers: layers.clone(),
            }),
        }
    }
}

/// Contiguous range partitioning of an item catalog into shards.
///
/// `boundaries` holds `num_shards + 1` cumulative item ids:
/// shard `s` owns items `boundaries[s]..boundaries[s + 1]`. Ranges are
/// balanced to within one row (the first `num_items % shards` shards get
/// the extra row), cover the catalog exactly once, and are ordered — so
/// concatenating per-shard results in shard order visits items in
/// ascending global id order, which is what keeps the scatter-gather
/// merge's tie-breaks identical to a single-engine scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    boundaries: Vec<u32>,
}

impl ShardMap {
    /// A balanced contiguous partition of `num_items` into `shards`
    /// ranges. `shards` is clamped to `1..=max(num_items, 1)`, so no
    /// shard is ever empty (except the single shard of an empty catalog).
    pub fn contiguous(num_items: usize, shards: usize) -> ShardMap {
        let shards = shards.clamp(1, num_items.max(1));
        let base = num_items / shards;
        let extra = num_items % shards;
        let mut boundaries = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        boundaries.push(0);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            boundaries.push(at as u32);
        }
        ShardMap { boundaries }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Total number of items covered.
    pub fn num_items(&self) -> usize {
        *self.boundaries.last().unwrap_or(&0) as usize
    }

    /// The global item range of shard `s`, or `None` out of range.
    pub fn range(&self, s: usize) -> Option<std::ops::Range<u32>> {
        let start = *self.boundaries.get(s)?;
        let end = *self.boundaries.get(s + 1)?;
        Some(start..end)
    }

    /// The shard owning `item`, or `None` past the catalog.
    pub fn shard_of(&self, item: u32) -> Option<usize> {
        if (item as usize) >= self.num_items() {
            return None;
        }
        // boundaries is strictly increasing past index 0; partition_point
        // finds the first boundary > item, whose predecessor's index is
        // the owning shard.
        Some(self.boundaries.partition_point(|&b| b <= item) - 1)
    }

    /// The cumulative boundaries (len = shards + 1, first 0, last =
    /// num_items).
    pub fn boundaries(&self) -> &[u32] {
        &self.boundaries
    }
}

/// A tape-free snapshot of a trained [`crate::PairwiseModel`].
///
/// `users` / `items` hold the final per-entity representations at one of
/// the [`Precision`]s; [`FrozenModel::head`] tells the engine how to
/// combine a pair into a preference score.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    /// Source model's display name.
    pub name: String,
    /// One row per user.
    pub users: EntityMatrix,
    /// One row per item.
    pub items: EntityMatrix,
    /// The pairing head (always `f32`).
    pub head: FrozenHead,
}

impl FrozenModel {
    /// Full-precision constructor — the shape every `freeze()`
    /// implementation produces.
    pub fn dense(name: impl Into<String>, users: Matrix, items: Matrix, head: FrozenHead) -> Self {
        FrozenModel {
            name: name.into(),
            users: EntityMatrix::F32(users),
            items: EntityMatrix::F32(items),
            head,
        }
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users.rows()
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.items.rows()
    }

    /// Storage precision of the entity matrices.
    pub fn precision(&self) -> Precision {
        self.users.precision()
    }

    /// Re-encodes the entity matrices at `precision`. Only a
    /// full-precision model can be quantized (quantizing twice would
    /// silently stack errors); `Precision::F32` is the identity.
    ///
    /// # Errors
    /// When `self` is already quantized.
    pub fn quantize(&self, precision: Precision) -> Result<FrozenModel, String> {
        let (EntityMatrix::F32(users), EntityMatrix::F32(items)) = (&self.users, &self.items)
        else {
            return Err(format!(
                "cannot quantize a {} model to {}; freeze at f32 first",
                self.precision().name(),
                precision.name()
            ));
        };
        let (users, items) = match precision {
            Precision::F32 => (
                EntityMatrix::F32(users.clone()),
                EntityMatrix::F32(items.clone()),
            ),
            Precision::F16 => (
                EntityMatrix::F16(HalfMatrix::from_matrix(users)),
                EntityMatrix::F16(HalfMatrix::from_matrix(items)),
            ),
            Precision::Int8 => (
                EntityMatrix::Int8(Int8Matrix::from_matrix(users)),
                EntityMatrix::Int8(Int8Matrix::from_matrix(items)),
            ),
        };
        Ok(FrozenModel {
            name: self.name.clone(),
            users,
            items,
            head: self.head.clone(),
        })
    }

    /// Checks internal consistency (dimensions of head vs. embeddings,
    /// matching precisions).
    ///
    /// # Errors
    /// A human-readable description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.users.precision() != self.items.precision() {
            return Err(format!(
                "user precision {} vs item precision {}",
                self.users.precision().name(),
                self.items.precision().name()
            ));
        }
        let (du, di) = (self.users.cols(), self.items.cols());
        match &self.head {
            FrozenHead::DotBias { bias } => {
                if du != di {
                    return Err(format!("dot head with user dim {du} vs item dim {di}"));
                }
                if bias.len() != self.items.rows() {
                    return Err(format!(
                        "bias length {} vs {} items",
                        bias.len(),
                        self.items.rows()
                    ));
                }
            }
            FrozenHead::Mlp { layers } => {
                let Some(first) = layers.first() else {
                    return Err("MLP head with no layers".to_owned());
                };
                if first.w.cols() != du + di {
                    return Err(format!(
                        "MLP head expects input {} but [u ‖ i] has {}",
                        first.w.cols(),
                        du + di
                    ));
                }
                let mut dim = first.w.cols();
                for (idx, layer) in layers.iter().enumerate() {
                    if layer.w.cols() != dim {
                        return Err(format!(
                            "layer {idx} expects input {} but receives {dim}",
                            layer.w.cols()
                        ));
                    }
                    if layer.b.len() != layer.w.rows() {
                        return Err(format!(
                            "layer {idx} bias length {} vs {} outputs",
                            layer.b.len(),
                            layer.w.rows()
                        ));
                    }
                    dim = layer.w.rows();
                }
                if dim != 1 {
                    return Err(format!("MLP head outputs {dim} values, want a scalar"));
                }
            }
        }
        Ok(())
    }

    /// Slices the *item side* of the model to `start..end`: the item
    /// matrix rows and the head's per-item state, together, so the pair
    /// stays consistent. The user matrix is untouched by sharding — every
    /// shard scores against the full user universe.
    ///
    /// # Errors
    /// Out-of-bounds ranges.
    pub fn slice_items(
        &self,
        start: usize,
        end: usize,
    ) -> Result<(EntityMatrix, FrozenHead), String> {
        let items = self.items.slice_rows(start, end)?;
        let head = self.head.slice_items(start, end)?;
        Ok((items, head))
    }

    /// A deterministic dense dot-head model filled from `seed` — the
    /// frozen-only synthesis behind the `paper_scale_plus` preset.
    ///
    /// No interactions, graphs or training happen: at ≥1M users × ≥500k
    /// items only the frozen matrices fit in CI-adjacent memory, and the
    /// sharded serving path needs exactly those. Values come from a
    /// splitmix64 stream, so the same `(seed, shape)` always freezes the
    /// same bits on every platform.
    ///
    /// # Errors
    /// Shape inconsistencies (zero `dim` with nonzero rows cannot occur;
    /// the error path exists because `Matrix::from_vec` is fallible).
    pub fn synthetic(
        name: impl Into<String>,
        num_users: usize,
        num_items: usize,
        dim: usize,
        seed: u64,
    ) -> Result<FrozenModel, String> {
        // splitmix64: one stream for users, items, bias in that order.
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || -> f32 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            // Top 24 bits -> [-1, 1), scaled down so dot products stay
            // in a quantization-friendly range at any dim.
            ((z >> 40) as f32 / 8_388_608.0 - 1.0) * 0.5
        };
        let users = Matrix::from_vec(
            num_users,
            dim,
            (0..num_users * dim).map(|_| next()).collect(),
        )
        .map_err(|e| e.to_string())?;
        let items = Matrix::from_vec(
            num_items,
            dim,
            (0..num_items * dim).map(|_| next()).collect(),
        )
        .map_err(|e| e.to_string())?;
        let bias = (0..num_items).map(|_| next() * 0.05).collect();
        Ok(FrozenModel::dense(
            name,
            users,
            items,
            FrozenHead::DotBias { bias },
        ))
    }
}

// ---------------------------------------------------------------------------
// Serde bridge (checkpoint v4 `frozen` section)
// ---------------------------------------------------------------------------
//
// The vendored serde derive supports structs and unit-variant enums only,
// so the data-carrying `EntityMatrix` / `FrozenHead` / `Act` are flattened
// into tagged structs with optional payload fields.

/// Flat, serde-friendly form of a [`FrozenModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrozenSnapshot {
    name: String,
    precision: String,
    users: EntityPayload,
    items: EntityPayload,
    head: HeadPayload,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct EntityPayload {
    rows: usize,
    cols: usize,
    f32_data: Option<Vec<f32>>,
    f16_bits: Option<Vec<u16>>,
    int8_codes: Option<Vec<i8>>,
    int8_scales: Option<Vec<f32>>,
    int8_zero_points: Option<Vec<i32>>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct HeadPayload {
    kind: String,
    bias: Option<Vec<f32>>,
    layers: Option<Vec<LayerPayload>>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LayerPayload {
    w: Matrix,
    b: Vec<f32>,
    act: String,
    act_slope: f32,
}

fn act_to_payload(act: Act) -> (String, f32) {
    match act {
        Act::Identity => ("identity".to_owned(), 0.0),
        Act::Sigmoid => ("sigmoid".to_owned(), 0.0),
        Act::Relu => ("relu".to_owned(), 0.0),
        Act::Tanh => ("tanh".to_owned(), 0.0),
        Act::LeakyRelu(slope) => ("leaky_relu".to_owned(), slope),
    }
}

fn act_from_payload(name: &str, slope: f32) -> Result<Act, String> {
    match name {
        "identity" => Ok(Act::Identity),
        "sigmoid" => Ok(Act::Sigmoid),
        "relu" => Ok(Act::Relu),
        "tanh" => Ok(Act::Tanh),
        "leaky_relu" => Ok(Act::LeakyRelu(slope)),
        other => Err(format!("unknown activation {other:?} in frozen snapshot")),
    }
}

fn entity_to_payload(e: &EntityMatrix) -> EntityPayload {
    let mut p = EntityPayload {
        rows: e.rows(),
        cols: e.cols(),
        f32_data: None,
        f16_bits: None,
        int8_codes: None,
        int8_scales: None,
        int8_zero_points: None,
    };
    match e {
        EntityMatrix::F32(m) => p.f32_data = Some(m.as_slice().to_vec()),
        EntityMatrix::F16(m) => p.f16_bits = Some(m.as_bits().to_vec()),
        EntityMatrix::Int8(m) => {
            p.int8_codes = Some(m.codes().to_vec());
            p.int8_scales = Some(m.scales().to_vec());
            p.int8_zero_points = Some(m.zero_points().to_vec());
        }
    }
    p
}

fn entity_from_payload(p: EntityPayload, precision: Precision) -> Result<EntityMatrix, String> {
    match precision {
        Precision::F32 => {
            let data = p
                .f32_data
                .ok_or("f32 entity payload missing f32_data".to_owned())?;
            if data.len() != p.rows * p.cols {
                return Err(format!(
                    "f32 entity payload: {} values for {}x{}",
                    data.len(),
                    p.rows,
                    p.cols
                ));
            }
            let mut m = Matrix::zeros(p.rows, p.cols);
            m.as_mut_slice().copy_from_slice(&data);
            Ok(EntityMatrix::F32(m))
        }
        Precision::F16 => {
            let bits = p
                .f16_bits
                .ok_or("f16 entity payload missing f16_bits".to_owned())?;
            Ok(EntityMatrix::F16(HalfMatrix::from_parts(
                p.rows, p.cols, bits,
            )?))
        }
        Precision::Int8 => {
            let codes = p
                .int8_codes
                .ok_or("int8 entity payload missing int8_codes".to_owned())?;
            let scales = p
                .int8_scales
                .ok_or("int8 entity payload missing int8_scales".to_owned())?;
            let zero_points = p
                .int8_zero_points
                .ok_or("int8 entity payload missing int8_zero_points".to_owned())?;
            Ok(EntityMatrix::Int8(Int8Matrix::from_parts(
                p.rows,
                p.cols,
                codes,
                scales,
                zero_points,
            )?))
        }
    }
}

impl From<&FrozenModel> for FrozenSnapshot {
    fn from(m: &FrozenModel) -> FrozenSnapshot {
        let head = match &m.head {
            FrozenHead::DotBias { bias } => HeadPayload {
                kind: "dot_bias".to_owned(),
                bias: Some(bias.clone()),
                layers: None,
            },
            FrozenHead::Mlp { layers } => HeadPayload {
                kind: "mlp".to_owned(),
                bias: None,
                layers: Some(
                    layers
                        .iter()
                        .map(|l| {
                            let (act, act_slope) = act_to_payload(l.act);
                            LayerPayload {
                                w: l.w.clone(),
                                b: l.b.clone(),
                                act,
                                act_slope,
                            }
                        })
                        .collect(),
                ),
            },
        };
        FrozenSnapshot {
            name: m.name.clone(),
            precision: m.precision().name().to_owned(),
            users: entity_to_payload(&m.users),
            items: entity_to_payload(&m.items),
            head,
        }
    }
}

impl FrozenSnapshot {
    /// Rebuilds (and validates) the frozen model.
    ///
    /// # Errors
    /// Structurally inconsistent or unrecognized payloads — the error a
    /// corrupt-but-CRC-valid `frozen` section surfaces as.
    pub fn into_model(self) -> Result<FrozenModel, String> {
        let precision = Precision::parse(&self.precision)?;
        let users = entity_from_payload(self.users, precision)?;
        let items = entity_from_payload(self.items, precision)?;
        let head = match self.head.kind.as_str() {
            "dot_bias" => FrozenHead::DotBias {
                bias: self
                    .head
                    .bias
                    .ok_or("dot_bias head missing bias".to_owned())?,
            },
            "mlp" => FrozenHead::Mlp {
                layers: self
                    .head
                    .layers
                    .ok_or("mlp head missing layers".to_owned())?
                    .into_iter()
                    .map(|l| {
                        Ok(FrozenLayer {
                            w: l.w,
                            b: l.b,
                            act: act_from_payload(&l.act, l.act_slope)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            },
            other => return Err(format!("unknown frozen head kind {other:?}")),
        };
        let model = FrozenModel {
            name: self.name,
            users,
            items,
            head,
        };
        model.validate()?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot_model() -> FrozenModel {
        FrozenModel {
            name: "dot".to_owned(),
            users: EntityMatrix::F32(Matrix::zeros(3, 4)),
            items: EntityMatrix::F32(Matrix::zeros(5, 4)),
            head: FrozenHead::DotBias { bias: vec![0.0; 5] },
        }
    }

    fn filled(rows: usize, cols: usize, step: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 - 7.0) * step;
        }
        m
    }

    #[test]
    fn validate_accepts_consistent_dot() {
        assert!(dot_model().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bias_mismatch() {
        let mut m = dot_model();
        if let FrozenHead::DotBias { bias } = &mut m.head {
            bias.pop();
        }
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_mlp_dims() {
        let m = FrozenModel {
            name: "mlp".to_owned(),
            users: EntityMatrix::F32(Matrix::zeros(2, 4)),
            items: EntityMatrix::F32(Matrix::zeros(2, 4)),
            head: FrozenHead::Mlp {
                layers: vec![FrozenLayer {
                    w: Matrix::zeros(1, 6), // wants 8 inputs
                    b: vec![0.0],
                    act: Act::Identity,
                }],
            },
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_scalar_output() {
        let m = FrozenModel {
            name: "mlp".to_owned(),
            users: EntityMatrix::F32(Matrix::zeros(2, 2)),
            items: EntityMatrix::F32(Matrix::zeros(2, 2)),
            head: FrozenHead::Mlp {
                layers: vec![FrozenLayer {
                    w: Matrix::zeros(3, 4),
                    b: vec![0.0; 3],
                    act: Act::Identity,
                }],
            },
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_mixed_precisions() {
        let mut m = dot_model();
        m.items = EntityMatrix::Int8(Int8Matrix::from_matrix(&Matrix::zeros(5, 4)));
        assert!(m.validate().is_err());
    }

    #[test]
    fn quantize_changes_precision_and_validates() {
        let m = FrozenModel::dense(
            "q",
            filled(3, 4, 0.25),
            filled(5, 4, 0.5),
            FrozenHead::DotBias { bias: vec![0.0; 5] },
        );
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            let q = m.quantize(p).unwrap();
            assert_eq!(q.precision(), p);
            assert!(q.validate().is_ok());
            assert_eq!(q.num_users(), 3);
            assert_eq!(q.num_items(), 5);
        }
        // Quantizing twice is refused.
        let q = m.quantize(Precision::Int8).unwrap();
        assert!(q.quantize(Precision::F16).is_err());
    }

    #[test]
    fn snapshot_round_trips_every_precision() {
        let m = FrozenModel::dense(
            "rt",
            filled(3, 4, 0.125),
            filled(5, 4, 0.375),
            FrozenHead::DotBias {
                bias: vec![0.5, -0.5, 0.0, 1.0, 2.0],
            },
        );
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            let q = m.quantize(p).unwrap();
            let snap = FrozenSnapshot::from(&q);
            let json = serde_json::to_string(&snap).unwrap();
            let back: FrozenSnapshot = serde_json::from_str(&json).unwrap();
            let rebuilt = back.into_model().unwrap();
            assert_eq!(rebuilt.precision(), p);
            // Expanded rows are identical to the pre-serialization model.
            let mut want = vec![0.0f32; 4];
            let mut got = vec![0.0f32; 4];
            for r in 0..q.num_items() {
                q.items.expand_row_into(r, &mut want);
                rebuilt.items.expand_row_into(r, &mut got);
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(wb, gb, "{} row {r}", p.name());
            }
        }
    }

    #[test]
    fn snapshot_round_trips_mlp_head() {
        let m = FrozenModel::dense(
            "mlp",
            filled(2, 3, 0.2),
            filled(4, 3, 0.1),
            FrozenHead::Mlp {
                layers: vec![
                    FrozenLayer {
                        w: filled(4, 6, 0.05),
                        b: vec![0.1; 4],
                        act: Act::LeakyRelu(0.125),
                    },
                    FrozenLayer {
                        w: filled(1, 4, 0.07),
                        b: vec![0.0],
                        act: Act::Identity,
                    },
                ],
            },
        );
        let snap = FrozenSnapshot::from(&m);
        let back: FrozenSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        let rebuilt = back.into_model().unwrap();
        let FrozenHead::Mlp { layers } = &rebuilt.head else {
            panic!("head kind changed in round trip");
        };
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].act, Act::LeakyRelu(0.125));
        assert_eq!(layers[1].act, Act::Identity);
        assert_eq!(layers[0].w.as_slice(), filled(4, 6, 0.05).as_slice());
    }

    #[test]
    fn shard_map_is_balanced_contiguous_and_total() {
        for (num_items, shards) in [(10usize, 4usize), (7, 2), (1, 8), (500, 8), (6, 6), (0, 3)] {
            let map = ShardMap::contiguous(num_items, shards);
            assert_eq!(map.num_items(), num_items);
            assert_eq!(map.boundaries().first(), Some(&0));
            let mut sizes = Vec::new();
            let mut at = 0u32;
            for s in 0..map.num_shards() {
                let r = map.range(s).unwrap();
                assert_eq!(r.start, at, "ranges must be contiguous");
                at = r.end;
                sizes.push(r.len());
            }
            assert_eq!(at as usize, num_items, "ranges must cover the catalog");
            let (min, max) = (
                sizes.iter().min().copied().unwrap_or(0),
                sizes.iter().max().copied().unwrap_or(0),
            );
            assert!(max - min <= 1, "balanced to within one row: {sizes:?}");
            for item in 0..num_items as u32 {
                let s = map.shard_of(item).unwrap();
                assert!(map.range(s).unwrap().contains(&item));
            }
            assert_eq!(map.shard_of(num_items as u32), None);
        }
        // More shards than items clamps rather than creating empties.
        assert_eq!(ShardMap::contiguous(3, 8).num_shards(), 3);
        assert_eq!(ShardMap::contiguous(0, 8).num_shards(), 1);
    }

    #[test]
    fn slice_rows_is_bitwise_faithful_at_every_precision() {
        let m = FrozenModel::dense(
            "s",
            filled(2, 4, 0.25),
            filled(9, 4, 0.375),
            FrozenHead::DotBias {
                bias: (0..9).map(|i| i as f32 * 0.1).collect(),
            },
        );
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            let q = m.quantize(p).unwrap();
            let (start, end) = (3usize, 7usize);
            let (slice, head) = q.slice_items(start, end).unwrap();
            assert_eq!(slice.rows(), end - start);
            assert_eq!(slice.precision(), p);
            let mut want = vec![0.0f32; 4];
            let mut got = vec![0.0f32; 4];
            for r in 0..slice.rows() {
                q.items.expand_row_into(start + r, &mut want);
                slice.expand_row_into(r, &mut got);
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(wb, gb, "{} row {r}", p.name());
            }
            let FrozenHead::DotBias { bias } = &head else {
                panic!("head kind changed in slice")
            };
            let FrozenHead::DotBias { bias: full } = &q.head else {
                panic!()
            };
            assert_eq!(bias.as_slice(), &full[start..end]);
        }
        assert!(m.items.slice_rows(5, 3).is_err());
        assert!(m.items.slice_rows(0, 10).is_err());
    }

    #[test]
    fn synthetic_models_are_seed_deterministic() {
        let a = FrozenModel::synthetic("syn", 13, 29, 8, 42).unwrap();
        let b = FrozenModel::synthetic("syn", 13, 29, 8, 42).unwrap();
        let c = FrozenModel::synthetic("syn", 13, 29, 8, 43).unwrap();
        assert!(a.validate().is_ok());
        assert_eq!(a.num_users(), 13);
        assert_eq!(a.num_items(), 29);
        let bits = |m: &FrozenModel| -> Vec<u32> {
            m.items
                .as_f32()
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "same seed, same bits");
        assert_ne!(bits(&a), bits(&c), "different seed, different bits");
        // Values stay bounded for quantization-friendly dot products.
        assert!(a
            .items
            .as_f32()
            .unwrap()
            .as_slice()
            .iter()
            .all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn snapshot_rejects_inconsistent_payloads() {
        let m = dot_model();
        let mut snap = FrozenSnapshot::from(&m);
        snap.precision = "int4".to_owned();
        assert!(snap.into_model().is_err());
        let mut snap = FrozenSnapshot::from(&m);
        snap.users.rows = 99; // length no longer matches rows*cols
        assert!(snap.into_model().is_err());
        let mut snap = FrozenSnapshot::from(&m);
        snap.head.kind = "mystery".to_owned();
        assert!(snap.into_model().is_err());
    }
}
