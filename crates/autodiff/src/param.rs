//! Parameter and gradient storage.
//!
//! A [`ParamStore`] owns every trainable tensor of a model. Parameters come
//! in two kinds:
//!
//! * **Dense** — weight matrices and bias vectors; every element gets a
//!   gradient on every step.
//! * **Embedding** — entity tables (users, items, categories, scenes) whose
//!   rows are embeddings; a step only touches the rows gathered during the
//!   forward pass, so gradients are stored per touched row in a row arena
//!   (a sorted row index over one contiguous value buffer).

use rand::Rng;
use scenerec_tensor::{Initializer, Matrix};
use serde::{Deserialize, Serialize};

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index of the parameter within its store (stable for the store's
    /// lifetime; useful for diagnostics).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Whether a parameter receives dense or sparse (row-wise) gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamKind {
    /// Full-matrix gradients.
    Dense,
    /// Row-sparse gradients (embedding tables).
    Embedding,
}

/// A single named parameter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    name: String,
    kind: ParamKind,
    value: Matrix,
}

impl Param {
    /// Human-readable name (unique within the store).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Gradient kind.
    pub fn kind(&self) -> ParamKind {
        self.kind
    }

    /// Current value.
    pub fn value(&self) -> &Matrix {
        &self.value
    }

    /// Mutable value (used by optimizers).
    pub fn value_mut(&mut self) -> &mut Matrix {
        &mut self.value
    }
}

/// Owns all trainable parameters of a model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dense parameter initialized with `init`.
    ///
    /// # Panics
    /// Panics if `name` is already registered — parameter names double as
    /// checkpoint keys and must be unique.
    pub fn add_dense(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        init: Initializer,
        rng: &mut impl Rng,
    ) -> ParamId {
        self.add(name, ParamKind::Dense, init.init(rows, cols, rng))
    }

    /// Registers an embedding table of `entities x dim` rows.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn add_embedding(
        &mut self,
        name: &str,
        entities: usize,
        dim: usize,
        init: Initializer,
        rng: &mut impl Rng,
    ) -> ParamId {
        self.add(name, ParamKind::Embedding, init.init(entities, dim, rng))
    }

    /// Registers a parameter with an explicit value (checkpoint restore,
    /// tests).
    pub fn add(&mut self, name: &str, kind: ParamKind, value: Matrix) -> ParamId {
        assert!(
            self.lookup(name).is_none(),
            "duplicate parameter name `{name}`"
        );
        let id = ParamId(self.params.len());
        self.params.push(Param {
            name: name.to_owned(),
            kind,
            value,
        });
        id
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Parameter metadata and value by id.
    pub fn param(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access (optimizers).
    pub fn param_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Finds a parameter id by name.
    pub fn lookup(&self, name: &str) -> Option<ParamId> {
        self.params.iter().position(|p| p.name == name).map(ParamId)
    }

    /// Iterates over `(id, param)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Sum of squared weights over **dense** parameters plus the given
    /// embedding rows — the `λ‖Θ‖²` term of Eq. 15 restricted, as is
    /// standard for BPR, to the parameters touched by the mini-batch.
    pub fn l2_of(&self, embedding_rows: &[(ParamId, u32)]) -> f32 {
        let dense: f32 = self
            .params
            .iter()
            .filter(|p| p.kind == ParamKind::Dense)
            .map(|p| p.value.as_slice().iter().map(|v| v * v).sum::<f32>())
            .sum();
        let rows: f32 = embedding_rows
            .iter()
            .map(|&(id, row)| {
                self.value(id)
                    .row(row as usize)
                    .iter()
                    .map(|v| v * v)
                    .sum::<f32>()
            })
            .sum();
        dense + rows
    }
}

/// Per-parameter gradient of an embedding table: touched rows only.
///
/// One sorted row index over one contiguous value buffer. `index` holds
/// `(row, slot)` pairs in ascending row order; row `row`'s gradient lives
/// at `vals[slot * dim..][..dim]`, and slots are handed out in first-touch
/// order, so a new row costs one index insert and `dim` zeros appended
/// to `vals` — never an allocation of its own. [`RowArena::clear`] keeps
/// both buffers' capacity, and an empty arena owns no heap memory, so a
/// fresh [`GradStore`] costs nothing per embedding table whatever the
/// table's size.
///
/// Reductions over rows (the global gradient norm) walk `index`, i.e.
/// ascending row order, so same-seed runs stay bit-identical.
#[derive(Debug, Clone, Default)]
struct RowArena {
    index: Vec<(u32, u32)>,
    vals: Vec<f32>,
    /// Scratch for [`RowArena::merge`]'s merged index, kept for reuse.
    spare: Vec<(u32, u32)>,
}

/// Rows reserved on an arena's first touch: about one example's worth
/// of rows for the larger tables, so growth rarely reallocates.
const FIRST_TOUCH_ROWS: usize = 32;

impl RowArena {
    fn clear(&mut self) {
        self.index.clear();
        self.vals.clear();
    }

    fn slot_vals(&self, slot: u32, dim: usize) -> &[f32] {
        let at = slot as usize * dim;
        &self.vals[at..at + dim]
    }

    fn get(&self, row: u32, dim: usize) -> Option<&[f32]> {
        let i = self.index.binary_search_by_key(&row, |&(r, _)| r).ok()?;
        Some(self.slot_vals(self.index[i].1, dim))
    }

    fn iter(&self, dim: usize) -> impl ExactSizeIterator<Item = (u32, &[f32])> + '_ {
        self.index
            .iter()
            .map(move |&(row, slot)| (row, self.slot_vals(slot, dim)))
    }

    /// Appends a `+0.0`-filled slot and returns its number.
    fn push_slot(&mut self, dim: usize) -> u32 {
        if self.vals.capacity() == 0 {
            self.index.reserve(FIRST_TOUCH_ROWS);
            self.vals.reserve(FIRST_TOUCH_ROWS * dim);
        }
        let slot = (self.vals.len() / dim.max(1)) as u32;
        self.vals.resize(self.vals.len() + dim, 0.0);
        slot
    }

    /// The values of `row`, inserted as `+0.0` on first touch.
    fn row_mut(&mut self, row: u32, dim: usize) -> &mut [f32] {
        let slot = match self.index.binary_search_by_key(&row, |&(r, _)| r) {
            Ok(i) => self.index[i].1,
            Err(i) => {
                let slot = self.push_slot(dim);
                self.index.insert(i, (row, slot));
                slot
            }
        };
        let at = slot as usize * dim;
        &mut self.vals[at..at + dim]
    }

    /// Accumulates every row of `other` into `self`: one walk over both
    /// sorted indices, rows new to `self` appended as fresh `+0.0` slots.
    fn merge(&mut self, other: &RowArena, dim: usize) {
        if self.index.is_empty() {
            // Same arithmetic as the general walk (fresh +0.0 slots plus
            // `1.0 * x`), with `other`'s slot numbering kept as is.
            self.index.extend_from_slice(&other.index);
            self.vals.resize(other.vals.len(), 0.0);
            scenerec_tensor::linalg::axpy(1.0, &other.vals, &mut self.vals);
            return;
        }
        let mut merged = std::mem::take(&mut self.spare);
        merged.clear();
        merged.reserve(self.index.len() + other.index.len());
        let mut mine = 0;
        for &(row, theirs) in &other.index {
            while mine < self.index.len() && self.index[mine].0 < row {
                merged.push(self.index[mine]);
                mine += 1;
            }
            let slot = match self.index.get(mine) {
                Some(&(r, s)) if r == row => {
                    mine += 1;
                    s
                }
                _ => self.push_slot(dim),
            };
            merged.push((row, slot));
            let at = slot as usize * dim;
            scenerec_tensor::linalg::axpy(
                1.0,
                other.slot_vals(theirs, dim),
                &mut self.vals[at..at + dim],
            );
        }
        merged.extend_from_slice(&self.index[mine..]);
        self.spare = std::mem::replace(&mut self.index, merged);
    }
}

/// Gradient accumulator mirroring a [`ParamStore`].
///
/// Dense parameters get a lazily allocated full matrix; embedding tables get
/// a row arena (touched rows only, ascending row order). Reuse one
/// `GradStore` across steps and call [`GradStore::clear`] between them to
/// keep allocations warm.
#[derive(Debug, Clone)]
pub struct GradStore {
    dense: Vec<Option<Matrix>>,
    sparse: Vec<RowArena>,
    kinds: Vec<ParamKind>,
    shapes: Vec<(usize, usize)>,
}

impl GradStore {
    /// Creates an empty gradient store shaped after `store`. Allocates
    /// nothing per parameter: dense slots and row arenas fill on first
    /// touch.
    pub fn new(store: &ParamStore) -> Self {
        GradStore {
            dense: vec![None; store.len()],
            sparse: vec![RowArena::default(); store.len()],
            kinds: store.params.iter().map(|p| p.kind).collect(),
            shapes: store.params.iter().map(|p| p.value.shape()).collect(),
        }
    }

    /// Number of parameter slots.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when shaped after an empty store.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Zeroes all accumulated gradients while keeping allocations.
    pub fn clear(&mut self) {
        for g in self.dense.iter_mut().flatten() {
            g.fill_zero();
        }
        for s in &mut self.sparse {
            s.clear();
        }
    }

    /// Gradient kind of parameter `id`.
    pub fn kind(&self, id: ParamId) -> ParamKind {
        self.kinds[id.0]
    }

    /// The dense slot of `id`, allocated at `+0.0` on first touch.
    fn dense_slot(&mut self, id: ParamId) -> &mut Matrix {
        assert_eq!(self.kinds[id.0], ParamKind::Dense, "expected dense param");
        let (r, c) = self.shapes[id.0];
        self.dense[id.0].get_or_insert_with(|| Matrix::zeros(r, c))
    }

    /// Accumulates a dense gradient contribution.
    ///
    /// # Panics
    /// Panics if `id` is an embedding parameter or the shape mismatches.
    pub fn add_dense(&mut self, id: ParamId, grad: &Matrix) {
        scenerec_tensor::linalg::add_scaled(self.dense_slot(id), 1.0, grad);
    }

    /// Accumulates the outer product `g xᵀ` into the dense gradient of
    /// `id` (the weight gradient of `W x`), without materializing it:
    /// element `(r, j)` becomes `slot + g[r]·x[j]`, and rows with
    /// `g[r] == 0.0` are skipped — exactly the sums of adding a
    /// materialized outer product whose zero rows were never written
    /// (slots never hold `-0.0`, see [`GradStore::merge`]).
    ///
    /// # Panics
    /// Panics if `id` is an embedding parameter or the parameter is not
    /// `g.len() x x.len()`.
    pub fn add_outer(&mut self, id: ParamId, g: &[f32], x: &[f32]) {
        let slot = self.dense_slot(id);
        assert_eq!(slot.shape(), (g.len(), x.len()), "add_outer shape mismatch");
        for (r, &gr) in g.iter().enumerate() {
            if gr == 0.0 {
                continue;
            }
            for (s, &xv) in slot.row_mut(r).iter_mut().zip(x) {
                *s += gr * xv;
            }
        }
    }

    /// Accumulates a sparse row gradient for an embedding table.
    ///
    /// # Panics
    /// Panics if `id` is a dense parameter or `row_grad` has wrong length.
    pub fn add_row(&mut self, id: ParamId, row: u32, row_grad: &[f32]) {
        self.add_row_scaled(id, row, 1.0, row_grad);
    }

    /// Like [`GradStore::add_row`] but scales the contribution.
    pub fn add_row_scaled(&mut self, id: ParamId, row: u32, alpha: f32, row_grad: &[f32]) {
        assert_eq!(
            self.kinds[id.0],
            ParamKind::Embedding,
            "expected embedding param"
        );
        let dim = self.shapes[id.0].1;
        assert_eq!(row_grad.len(), dim, "row gradient length mismatch");
        scenerec_tensor::linalg::axpy(alpha, row_grad, self.sparse[id.0].row_mut(row, dim));
    }

    /// Dense gradient of a parameter, if any contribution was recorded.
    pub fn dense(&self, id: ParamId) -> Option<&Matrix> {
        self.dense[id.0].as_ref()
    }

    /// Touched rows of an embedding parameter with their gradients, in
    /// ascending row order.
    pub fn rows(&self, id: ParamId) -> impl ExactSizeIterator<Item = (u32, &[f32])> + '_ {
        self.sparse[id.0].iter(self.shapes[id.0].1)
    }

    /// Gradient of one row of an embedding parameter, if it was touched.
    pub fn row(&self, id: ParamId, row: u32) -> Option<&[f32]> {
        self.sparse[id.0].get(row, self.shapes[id.0].1)
    }

    /// Global gradient norm across all accumulated gradients: dense
    /// parameters in store order, then each table's rows in ascending row
    /// order, one partial sum per matrix or row.
    pub fn global_norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for g in self.dense.iter().flatten() {
            sq += g.as_slice().iter().map(|v| v * v).sum::<f32>();
        }
        for (s, &(_, dim)) in self.sparse.iter().zip(&self.shapes) {
            for (_, row) in s.iter(dim) {
                sq += row.iter().map(|v| v * v).sum::<f32>();
            }
        }
        sq.sqrt()
    }

    /// Scales every accumulated gradient by `alpha` (gradient clipping).
    pub fn scale(&mut self, alpha: f32) {
        for g in self.dense.iter_mut().flatten() {
            g.map_inplace(|v| v * alpha);
        }
        for s in &mut self.sparse {
            scenerec_tensor::linalg::scale(alpha, &mut s.vals);
        }
    }

    /// Accumulates every gradient recorded in `other` into `self`.
    ///
    /// This is the reduction step of data-parallel training: each worker
    /// produces per-example `GradStore`s on its own tape, and the trainer
    /// merges them into one accumulator **in example order**. It is
    /// bit-identical to serial in-place accumulation because every slot
    /// starts at `+0.0` and accumulating from `+0.0` never produces
    /// `-0.0` (`+0.0 + -0.0 == +0.0`, and an exact-zero sum of nonzero
    /// terms rounds to `+0.0`). So a slot never holds `-0.0`, `0.0 + x`
    /// equals `x` for every value that can reach it, and a fresh slot —
    /// whether the accumulator's or a copied example's — holds the same
    /// bits as the serial slot. (`0.0 + x == x` alone is false: it maps
    /// `x = -0.0` to `+0.0`; only the invariant makes the two orders
    /// agree.)
    ///
    /// # Panics
    /// Panics if the stores are shaped after different [`ParamStore`]s.
    pub fn merge(&mut self, other: &GradStore) {
        assert_eq!(self.shapes, other.shapes, "GradStore layout mismatch");
        for (id, grad) in other.dense.iter().enumerate() {
            let Some(grad) = grad else { continue };
            match &mut self.dense[id] {
                Some(slot) => scenerec_tensor::linalg::add_scaled(slot, 1.0, grad),
                slot => *slot = Some(grad.clone()),
            }
        }
        for (id, rows) in other.sparse.iter().enumerate() {
            self.sparse[id].merge(rows, self.shapes[id].1);
        }
    }

    /// True when every accumulated gradient value is finite.
    pub fn all_finite(&self) -> bool {
        self.dense
            .iter()
            .flatten()
            .all(scenerec_tensor::Matrix::all_finite)
            && self
                .sparse
                .iter()
                .all(|s| s.vals.iter().all(|v| v.is_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store_with_two() -> (ParamStore, ParamId, ParamId) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let w = s.add_dense("w", 2, 3, Initializer::Constant(1.0), &mut rng);
        let e = s.add_embedding("emb", 10, 4, Initializer::Constant(0.5), &mut rng);
        (s, w, e)
    }

    #[test]
    fn add_and_lookup() {
        let (s, w, e) = store_with_two();
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup("w"), Some(w));
        assert_eq!(s.lookup("emb"), Some(e));
        assert_eq!(s.lookup("missing"), None);
        assert_eq!(s.param(w).kind(), ParamKind::Dense);
        assert_eq!(s.param(e).kind(), ParamKind::Embedding);
        assert_eq!(s.num_scalars(), 2 * 3 + 10 * 4);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let (mut s, ..) = store_with_two();
        let mut rng = StdRng::seed_from_u64(0);
        s.add_dense("w", 1, 1, Initializer::Zeros, &mut rng);
    }

    #[test]
    fn l2_counts_dense_and_touched_rows() {
        let (s, _w, e) = store_with_two();
        // Dense: 6 ones => 6. One embedding row of 4 x 0.25 => 1.
        let l2 = s.l2_of(&[(e, 3)]);
        assert!((l2 - 7.0).abs() < 1e-6, "l2={l2}");
        // No rows: dense only.
        assert!((s.l2_of(&[]) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn grad_store_dense_accumulates() {
        let (s, w, _e) = store_with_two();
        let mut g = GradStore::new(&s);
        assert!(g.dense(w).is_none());
        let one = Matrix::full(2, 3, 1.0);
        g.add_dense(w, &one);
        g.add_dense(w, &one);
        assert_eq!(g.dense(w).unwrap().as_slice(), &[2.0; 6]);
    }

    #[test]
    fn grad_store_sparse_accumulates() {
        let (s, _w, e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_row(e, 2, &[1.0, 0.0, 0.0, 0.0]);
        g.add_row(e, 2, &[1.0, 2.0, 0.0, 0.0]);
        g.add_row_scaled(e, 7, 0.5, &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(g.rows(e).len(), 2);
        assert_eq!(g.row(e, 2), Some(&[2.0, 2.0, 0.0, 0.0][..]));
        assert_eq!(g.row(e, 7), Some(&[1.0, 1.0, 1.0, 1.0][..]));
        assert_eq!(g.row(e, 3), None);
    }

    #[test]
    #[should_panic(expected = "expected dense param")]
    fn dense_grad_on_embedding_panics() {
        let (s, _w, e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_dense(e, &Matrix::zeros(10, 4));
    }

    #[test]
    #[should_panic(expected = "expected embedding param")]
    fn row_grad_on_dense_panics() {
        let (s, w, _e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_row(w, 0, &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn clear_keeps_shape_but_zeroes() {
        let (s, w, e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_dense(w, &Matrix::full(2, 3, 1.0));
        g.add_row(e, 1, &[1.0; 4]);
        g.clear();
        assert_eq!(g.dense(w).unwrap().sum(), 0.0);
        assert_eq!(g.rows(e).len(), 0);
        assert_eq!(g.row(e, 1), None);
    }

    #[test]
    fn global_norm_and_scale() {
        let (s, w, e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_dense(w, &Matrix::full(2, 3, 2.0)); // 6 * 4 = 24
        g.add_row(e, 0, &[3.0, 0.0, 0.0, 0.0]); // 9
        assert!((g.global_norm() - (33.0f32).sqrt()).abs() < 1e-5);
        g.scale(0.5);
        assert!((g.global_norm() - (33.0f32).sqrt() / 2.0).abs() < 1e-5);
    }

    #[test]
    fn merge_matches_in_place_accumulation() {
        let (s, w, e) = store_with_two();
        // Serial reference: everything accumulated into one store.
        let mut serial = GradStore::new(&s);
        serial.add_dense(w, &Matrix::full(2, 3, 0.25));
        serial.add_row(e, 1, &[1.0, 2.0, 3.0, 4.0]);
        serial.add_dense(w, &Matrix::full(2, 3, 0.5));
        serial.add_row(e, 1, &[0.5; 4]);
        serial.add_row(e, 6, &[1.0; 4]);
        // Parallel shape: two per-example stores merged in example order.
        let mut a = GradStore::new(&s);
        a.add_dense(w, &Matrix::full(2, 3, 0.25));
        a.add_row(e, 1, &[1.0, 2.0, 3.0, 4.0]);
        let mut b = GradStore::new(&s);
        b.add_dense(w, &Matrix::full(2, 3, 0.5));
        b.add_row(e, 1, &[0.5; 4]);
        b.add_row(e, 6, &[1.0; 4]);
        let mut merged = GradStore::new(&s);
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(
            merged.dense(w).unwrap().as_slice(),
            serial.dense(w).unwrap().as_slice()
        );
        assert_eq!(
            merged.rows(e).collect::<Vec<_>>(),
            serial.rows(e).collect::<Vec<_>>()
        );
    }

    #[test]
    fn merge_into_cleared_store_reuses_allocations() {
        let (s, w, _e) = store_with_two();
        let mut acc = GradStore::new(&s);
        acc.add_dense(w, &Matrix::full(2, 3, 1.0));
        acc.clear(); // dense slot stays allocated at zero
        let mut other = GradStore::new(&s);
        other.add_dense(w, &Matrix::full(2, 3, 2.0));
        acc.merge(&other);
        assert_eq!(acc.dense(w).unwrap().as_slice(), &[2.0; 6]);
    }

    #[test]
    fn rows_iterate_ascending_whatever_the_insertion_order() {
        let (s, _w, e) = store_with_two();
        let mut g = GradStore::new(&s);
        for r in [7u32, 2, 9, 0, 5, 2, 7] {
            g.add_row(e, r, &[r as f32, 1.0, 0.0, 0.0]);
        }
        let rows: Vec<u32> = g.rows(e).map(|(r, _)| r).collect();
        assert_eq!(rows, vec![0, 2, 5, 7, 9]);
        assert_eq!(g.row(e, 7), Some(&[14.0, 2.0, 0.0, 0.0][..]));
        assert_eq!(g.row(e, 0), Some(&[0.0, 1.0, 0.0, 0.0][..]));
    }

    /// The trainer builds one store per example: `new` must not allocate
    /// per table (whatever the catalog size), and `clear` keeps the
    /// arena's buffers for the next example.
    #[test]
    fn new_allocates_nothing_per_table_and_clear_keeps_capacity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let e = s.add_embedding("big", 100_000, 8, Initializer::Zeros, &mut rng);
        let mut g = GradStore::new(&s);
        let arena = &g.sparse[e.0];
        assert_eq!((arena.index.capacity(), arena.vals.capacity()), (0, 0));
        g.add_row(e, 99_999, &[1.0; 8]);
        g.clear();
        let arena = &g.sparse[e.0];
        assert!(arena.index.is_empty() && arena.vals.is_empty());
        assert!(arena.index.capacity() > 0 && arena.vals.capacity() >= 8);
    }

    #[test]
    fn merge_interleaves_new_and_shared_rows() {
        let (s, _w, e) = store_with_two();
        let mut acc = GradStore::new(&s);
        acc.add_row(e, 4, &[1.0; 4]);
        acc.add_row(e, 1, &[2.0; 4]);
        let mut other = GradStore::new(&s);
        for r in [9u32, 4, 0, 6] {
            other.add_row(e, r, &[0.5; 4]);
        }
        acc.merge(&other);
        let got: Vec<(u32, f32)> = acc.rows(e).map(|(r, v)| (r, v[0])).collect();
        assert_eq!(got, vec![(0, 0.5), (1, 2.0), (4, 1.5), (6, 0.5), (9, 0.5)]);
    }

    /// The invariant `merge`'s exactness rests on: slots start at `+0.0`
    /// and no accumulation path turns them into `-0.0`, even when every
    /// contribution is `-0.0` or the terms cancel exactly.
    #[test]
    fn accumulation_from_positive_zero_never_yields_negative_zero() {
        let (s, w, e) = store_with_two();
        let neg = Matrix::full(2, 3, -0.0);
        let mut g = GradStore::new(&s);
        g.add_dense(w, &neg);
        g.add_outer(w, &[-1.0, 0.5], &[0.0, -0.0, 0.0]);
        g.add_row(e, 3, &[-0.0; 4]);
        g.add_row_scaled(e, 5, -1.0, &[0.0; 4]);
        g.add_row(e, 5, &[1.5, -2.0, 0.0, 0.0]);
        g.add_row(e, 5, &[-1.5, 2.0, -0.0, 0.0]);
        let positive_zero = |v: &f32| v.to_bits() == 0;
        assert!(g.dense(w).unwrap().as_slice().iter().all(positive_zero));
        assert!(g.rows(e).all(|(_, row)| row.iter().all(positive_zero)));
        // Both merge paths (fresh accumulator, then shared rows) keep it.
        let mut acc = GradStore::new(&s);
        acc.merge(&g);
        acc.merge(&g);
        assert!(acc.dense(w).unwrap().as_slice().iter().all(positive_zero));
        assert!(acc.rows(e).all(|(_, row)| row.iter().all(positive_zero)));
        // `0.0 + x == x` is false for x = -0.0 — which is why the
        // invariant, not that identity, carries the merge argument.
        assert_ne!((0.0f32 + -0.0f32).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn add_outer_matches_materialized_outer_product() {
        let (s, w, _e) = store_with_two();
        // An infinite input: the zero-gradient row must stay skipped
        // (`0 · inf` would poison it with NaN).
        let (gv, xv) = ([0.75f32, 0.0], [1.0f32, -2.0, f32::INFINITY]);
        let mut direct = GradStore::new(&s);
        direct.add_dense(w, &Matrix::full(2, 3, 0.125));
        direct.add_outer(w, &gv, &xv);
        // The materialized product as the tape used to build it: rows
        // with a zero gradient are never written.
        let mut outer = Matrix::zeros(2, 3);
        for (r, &g) in gv.iter().enumerate().filter(|&(_, &g)| g != 0.0) {
            for (o, &x) in outer.row_mut(r).iter_mut().zip(&xv) {
                *o = g * x;
            }
        }
        let mut via = GradStore::new(&s);
        via.add_dense(w, &Matrix::full(2, 3, 0.125));
        via.add_dense(w, &outer);
        assert_eq!(direct.dense(w).unwrap(), via.dense(w).unwrap());
    }

    /// `scale` can underflow a row to `-0.0`; merging that store still
    /// performs the row-map arithmetic: a fresh embedding slot computes
    /// `0.0 + 1.0 · x` (giving `+0.0`), while a fresh dense slot is a
    /// copy (keeping `-0.0`).
    #[test]
    fn merge_of_underflowed_store_keeps_row_map_arithmetic() {
        let (s, w, e) = store_with_two();
        let tiny = -f32::from_bits(1);
        let mut g = GradStore::new(&s);
        g.add_dense(w, &Matrix::full(2, 3, tiny));
        g.add_row(e, 4, &[tiny; 4]);
        g.scale(0.25);
        assert_eq!(g.row(e, 4).unwrap()[0].to_bits(), (-0.0f32).to_bits());
        let mut acc = GradStore::new(&s);
        acc.merge(&g);
        assert_eq!(acc.row(e, 4).unwrap()[0].to_bits(), 0);
        assert_eq!(
            acc.dense(w).unwrap().get(0, 0).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "add_outer shape mismatch")]
    fn add_outer_rejects_wrong_shape() {
        let (s, w, _e) = store_with_two();
        GradStore::new(&s).add_outer(w, &[1.0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "GradStore layout mismatch")]
    fn merge_rejects_foreign_layout() {
        let (s, ..) = store_with_two();
        let mut other_store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        other_store.add_dense("x", 1, 1, Initializer::Zeros, &mut rng);
        let mut a = GradStore::new(&s);
        a.merge(&GradStore::new(&other_store));
    }

    /// The data-parallel trainer moves `GradStore`s across scoped threads
    /// and shares `ParamStore` references between workers; pin those auto
    /// traits at compile time.
    #[test]
    fn stores_are_send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<GradStore>();
        assert_sync::<GradStore>();
        assert_send::<ParamStore>();
        assert_sync::<ParamStore>();
    }

    #[test]
    fn finite_check() {
        let (s, w, _e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_dense(w, &Matrix::full(2, 3, 1.0));
        assert!(g.all_finite());
        let mut bad = Matrix::zeros(2, 3);
        bad.set(0, 0, f32::NAN);
        g.add_dense(w, &bad);
        assert!(!g.all_finite());
    }
}
