//! The model abstraction shared by SceneRec and every baseline.
//!
//! A [`PairwiseModel`] owns a [`ParamStore`] and knows how to put the score
//! of a `(user, item)` pair onto a tape. Everything else — BPR sampling,
//! optimization, evaluation — is generic over this trait, guaranteeing
//! that Table 2's comparison uses the identical protocol for all ten rows.

use crate::freeze::{FrozenModel, Precision};
use scenerec_autodiff::{Graph, ParamStore, Var};
use scenerec_eval::Scorer;
use scenerec_graph::{ItemId, UserId};

/// A recommendation model trainable with pairwise (BPR) loss.
pub trait PairwiseModel {
    /// Model display name (Table 2 row label).
    fn name(&self) -> &str;

    /// The parameter store backing the model.
    fn store(&self) -> &ParamStore;

    /// Mutable access for the optimizer.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Builds the preference score `r'(u, i)` as a scalar node.
    fn build_score<'s>(&'s self, g: &mut Graph<'s>, user: UserId, item: ItemId) -> Var;

    /// Builds scores for one user against many candidates.
    ///
    /// The default loops over [`PairwiseModel::build_score`]; models whose
    /// user-side computation is expensive (SceneRec recomputes Eq. 1 per
    /// pair otherwise) override this to share it across candidates.
    fn build_scores<'s>(&'s self, g: &mut Graph<'s>, user: UserId, items: &[ItemId]) -> Vec<Var> {
        items
            .iter()
            .map(|&i| self.build_score(g, user, i))
            .collect()
    }

    /// Inference-time scores for one user against many candidates.
    fn score_values(&self, user: UserId, items: &[ItemId]) -> Vec<f32> {
        let mut g = Graph::new(self.store());
        let vars = self.build_scores(&mut g, user, items);
        vars.into_iter().map(|v| g.scalar(v)).collect()
    }

    /// Exports a dense, tape-free snapshot for the serving engine
    /// (`scenerec-serve`), or `None` when the model does not support
    /// freezing.
    ///
    /// Implementations must guarantee **exact** f32 parity: scoring the
    /// frozen snapshot's head layer by layer with the tape's `affine` +
    /// activation order (`scenerec_tensor::score::score_bt`, which the
    /// serving kernels reproduce) must give [`PairwiseModel::score_values`]
    /// bit for bit.
    fn freeze(&self) -> Option<FrozenModel> {
        None
    }

    /// Exports a frozen snapshot with the entity matrices re-encoded at
    /// `precision` (f16 bits or per-row int8 codes; `Precision::F32`
    /// equals [`PairwiseModel::freeze`]). Returns `None` when the model
    /// does not support freezing.
    ///
    /// Quantized snapshots trade the bit-exact-parity guarantee for
    /// memory and speed; the engine-side determinism contract (identical
    /// scores across backends, threads and worker counts) still holds.
    fn freeze_quantized(&self, precision: Precision) -> Option<FrozenModel> {
        self.freeze().and_then(|m| m.quantize(precision).ok())
    }
}

/// Adapter exposing any [`PairwiseModel`] as an evaluation [`Scorer`].
pub struct ModelScorer<'m, M: PairwiseModel + Sync>(pub &'m M);

impl<M: PairwiseModel + Sync> Scorer for ModelScorer<'_, M> {
    fn score_items(&self, user: UserId, items: &[ItemId]) -> Vec<f32> {
        self.0.score_values(user, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scenerec_autodiff::ParamStore;
    use scenerec_tensor::Initializer;

    /// A minimal dot-product model for exercising the trait machinery.
    struct DotModel {
        store: ParamStore,
        users: scenerec_autodiff::ParamId,
        items: scenerec_autodiff::ParamId,
    }

    impl DotModel {
        fn new(nu: usize, ni: usize, d: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            let users = store.add_embedding("u", nu, d, Initializer::Uniform(0.5), &mut rng);
            let items = store.add_embedding("i", ni, d, Initializer::Uniform(0.5), &mut rng);
            DotModel {
                store,
                users,
                items,
            }
        }
    }

    impl PairwiseModel for DotModel {
        fn name(&self) -> &str {
            "dot"
        }
        fn store(&self) -> &ParamStore {
            &self.store
        }
        fn store_mut(&mut self) -> &mut ParamStore {
            &mut self.store
        }
        fn build_score<'s>(&'s self, g: &mut Graph<'s>, user: UserId, item: ItemId) -> Var {
            let u = g.embed_row(self.users, user.raw());
            let i = g.embed_row(self.items, item.raw());
            g.dot(u, i)
        }
    }

    #[test]
    fn score_values_match_manual_dot() {
        let m = DotModel::new(3, 4, 8, 1);
        let scores = m.score_values(UserId(1), &[ItemId(0), ItemId(3)]);
        let urow = m.store.value(m.users).row(1).to_vec();
        let manual: Vec<f32> = [0usize, 3]
            .iter()
            .map(|&i| {
                m.store
                    .value(m.items)
                    .row(i)
                    .iter()
                    .zip(&urow)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect();
        for (s, m_) in scores.iter().zip(&manual) {
            assert!((s - m_).abs() < 1e-6);
        }
    }

    #[test]
    fn default_build_scores_equals_individual() {
        let m = DotModel::new(3, 4, 8, 2);
        let items = [ItemId(0), ItemId(1), ItemId(2)];
        let batch = m.score_values(UserId(0), &items);
        for (k, &i) in items.iter().enumerate() {
            let single = m.score_values(UserId(0), &[i]);
            assert!((batch[k] - single[0]).abs() < 1e-6);
        }
    }

    #[test]
    fn model_scorer_adapts() {
        use scenerec_eval::Scorer as _;
        let m = DotModel::new(2, 2, 4, 3);
        let s = ModelScorer(&m);
        let out = s.score_items(UserId(0), &[ItemId(0), ItemId(1)]);
        assert_eq!(out.len(), 2);
    }
}
