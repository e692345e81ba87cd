//! KGAT — Knowledge Graph Attention Network (Wang et al. 2019), in the
//! degraded configuration §5.2 of the SceneRec paper prescribes.
//!
//! The paper maps each scene to a KG entity and connects it to items
//! through the category membership, which "loses rich relations, e.g.
//! category-category interactions and item-item interactions". Two
//! relations remain: an item *belongs to* a scene and a scene *includes*
//! an item.
//!
//! Implementation: each item's layer-0 representation is its embedding
//! **plus** a relation-aware attentive aggregation of its scene entities:
//!
//! * attention logit `π(i, s) = (W_r e_s)ᵀ tanh(W_r e_i + e_r)` (KGAT's
//!   scoring function with a single hop),
//! * `ê_i = e_i + Σ_s softmax(π)_s · (W_r e_s)`.
//!
//! On top of that sits NGCF-style user-item propagation with depth `L`
//! (the paper sets 4), making KGAT a strict "NGCF + degraded KG" here —
//! mirroring how the original composes CF propagation with KG attention.

use crate::common::Interactions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenerec_autodiff::{Act, Graph, ParamId, ParamStore, Var};
use scenerec_core::PairwiseModel;
use scenerec_data::Dataset;
use scenerec_graph::{ItemId, UserId};
use scenerec_tensor::{Initializer, Matrix};
use std::collections::HashMap;

type MemoKey = (bool, u32, usize);

/// KGAT baseline over the degraded item-scene knowledge graph.
pub struct Kgat {
    store: ParamStore,
    user_emb: ParamId,
    item_emb: ParamId,
    scene_emb: ParamId,
    /// Relation embedding for *belongs-to* (`e_r`).
    rel_emb: ParamId,
    /// Relation-space projection `W_r`.
    w_rel: ParamId,
    /// `(W1, W2)` per propagation layer.
    layers: Vec<(ParamId, ParamId)>,
    inter: Interactions,
    user_degree: Vec<f32>,
    item_degree: Vec<f32>,
    /// `IS(i)`: scenes of each item's category.
    item_scenes: Vec<Vec<u32>>,
}

impl Kgat {
    /// Builds KGAT with `depth` CF-propagation layers and `fanout`
    /// sampling, reading the item→scene links from the dataset's scene
    /// graph (via the category membership, as §5.2 specifies).
    pub fn new(data: &Dataset, dim: usize, depth: usize, fanout: usize, seed: u64) -> Self {
        let (nu, ni) = (data.num_users() as usize, data.num_items() as usize);
        let ns = data.scene_graph.num_scenes() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let init = Initializer::Normal(0.1);
        let xavier = Initializer::XavierUniform;
        let user_emb = store.add_embedding("user_emb", nu, dim, init, &mut rng);
        let item_emb = store.add_embedding("item_emb", ni, dim, init, &mut rng);
        let scene_emb = store.add_embedding("scene_emb", ns, dim, init, &mut rng);
        let rel_emb = store.add_embedding("rel_emb", 1, dim, init, &mut rng);
        let w_rel = store.add_dense("w_rel", dim, dim, xavier, &mut rng);
        let layers = (0..depth)
            .map(|l| {
                (
                    store.add_dense(&format!("l{l}.w1"), dim, dim, xavier, &mut rng),
                    store.add_dense(&format!("l{l}.w2"), dim, dim, xavier, &mut rng),
                )
            })
            .collect();
        let user_degree = (0..data.train_graph.num_users())
            .map(|u| (data.train_graph.user_degree(UserId(u)) as f32).max(1.0))
            .collect();
        let item_degree = (0..data.train_graph.num_items())
            .map(|i| (data.train_graph.item_degree(ItemId(i)) as f32).max(1.0))
            .collect();
        let item_scenes = (0..data.scene_graph.num_items())
            .map(|i| data.scene_graph.scenes_of_item(ItemId(i)).to_vec())
            .collect();
        Kgat {
            store,
            user_emb,
            item_emb,
            scene_emb,
            rel_emb,
            w_rel,
            layers,
            inter: Interactions::from_graph(&data.train_graph, fanout, fanout),
            user_degree,
            item_degree,
            item_scenes,
        }
    }

    /// Layer-0 item representation with KG attention:
    /// `ê_i = e_i + Σ_s α_s (W_r e_s)`.
    fn item_base<'s>(&'s self, g: &mut Graph<'s>, i: u32, memo: &mut HashMap<MemoKey, Var>) -> Var {
        if let Some(&v) = memo.get(&(false, i, 0)) {
            return v;
        }
        let e_i = g.embed_row(self.item_emb, i);
        let scenes = &self.item_scenes[i as usize];
        let v = if scenes.is_empty() {
            e_i
        } else {
            // tanh(W_r e_i + e_r)
            let proj_i = g.linear(self.w_rel, e_i);
            let e_r = g.embed_row(self.rel_emb, 0);
            let sum = g.add(proj_i, e_r);
            let key = g.activation(sum, Act::Tanh);
            // Logits (W_r e_s)ᵀ key per scene.
            let projected: Vec<Var> = scenes
                .iter()
                .map(|&s| {
                    let e_s = g.embed_row(self.scene_emb, s);
                    g.linear(self.w_rel, e_s)
                })
                .collect();
            let logits: Vec<Var> = projected.iter().map(|&p| g.dot(p, key)).collect();
            let stacked = g.stack_scalars(&logits);
            let alphas = g.softmax(stacked);
            // Σ α_s (W_r e_s) — projected vars weighted by alpha entries.
            let dim = self.store.value(self.item_emb).cols();
            let mut agg = g.constant(Matrix::zeros(dim, 1));
            for (k, &p) in projected.iter().enumerate() {
                let a_k = g.select(alphas, k);
                let contrib = g.scalar_mul(a_k, p);
                agg = g.add(agg, contrib);
            }
            g.add(e_i, agg)
        };
        memo.insert((false, i, 0), v);
        v
    }

    /// `h^layer` under NGCF-style propagation with KG-augmented item bases.
    fn repr<'s>(
        &'s self,
        g: &mut Graph<'s>,
        is_user: bool,
        id: u32,
        layer: usize,
        memo: &mut HashMap<MemoKey, Var>,
    ) -> Var {
        if let Some(&v) = memo.get(&(is_user, id, layer)) {
            return v;
        }
        let v = if layer == 0 {
            if is_user {
                g.embed_row(self.user_emb, id)
            } else {
                return self.item_base(g, id, memo);
            }
        } else {
            let (w1, w2) = self.layers[layer - 1];
            let ego = self.repr(g, is_user, id, layer - 1, memo);
            let (neighbors, my_deg) = if is_user {
                (
                    &self.inter.user_items[id as usize],
                    self.user_degree[id as usize],
                )
            } else {
                (
                    &self.inter.item_users[id as usize],
                    self.item_degree[id as usize],
                )
            };
            let dim = self.store.value(self.user_emb).cols();
            let mut sum_plain = g.constant(Matrix::zeros(dim, 1));
            let mut sum_inter = g.constant(Matrix::zeros(dim, 1));
            for &n in neighbors {
                let n_deg = if is_user {
                    self.item_degree[n as usize]
                } else {
                    self.user_degree[n as usize]
                };
                let c = 1.0 / (my_deg * n_deg).sqrt();
                let hn = self.repr(g, !is_user, n, layer - 1, memo);
                let hn_scaled = g.scale(hn, c);
                sum_plain = g.add(sum_plain, hn_scaled);
                let inter = g.mul(hn, ego);
                let inter_scaled = g.scale(inter, c);
                sum_inter = g.add(sum_inter, inter_scaled);
            }
            let self_plus = g.add(ego, sum_plain);
            let t1 = g.linear(w1, self_plus);
            let t2 = g.linear(w2, sum_inter);
            let pre = g.add(t1, t2);
            g.activation(pre, Act::LeakyRelu(0.2))
        };
        memo.insert((is_user, id, layer), v);
        v
    }

    fn full_repr<'s>(
        &'s self,
        g: &mut Graph<'s>,
        is_user: bool,
        id: u32,
        memo: &mut HashMap<MemoKey, Var>,
    ) -> Var {
        let parts: Vec<Var> = (0..=self.layers.len())
            .map(|l| self.repr(g, is_user, id, l, memo))
            .collect();
        g.concat(&parts)
    }
}

impl PairwiseModel for Kgat {
    fn name(&self) -> &str {
        "KGAT"
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn build_score<'s>(&'s self, g: &mut Graph<'s>, user: UserId, item: ItemId) -> Var {
        let mut memo = HashMap::new();
        let hu = self.full_repr(g, true, user.raw(), &mut memo);
        let hi = self.full_repr(g, false, item.raw(), &mut memo);
        g.dot(hu, hi)
    }

    fn build_scores<'s>(&'s self, g: &mut Graph<'s>, user: UserId, items: &[ItemId]) -> Vec<Var> {
        let mut memo = HashMap::new();
        let hu = self.full_repr(g, true, user.raw(), &mut memo);
        items
            .iter()
            .map(|&i| {
                let hi = self.full_repr(g, false, i.raw(), &mut memo);
                g.dot(hu, hi)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenerec_autodiff::GradStore;
    use scenerec_core::trainer::{test, train, OptimizerKind, TrainConfig};
    use scenerec_data::{generate, GeneratorConfig};

    #[test]
    fn forward_is_finite() {
        let data = generate(&GeneratorConfig::tiny(121)).unwrap();
        let m = Kgat::new(&data, 8, 2, 4, 1);
        let s = m.score_values(UserId(0), &[ItemId(0), ItemId(5)]);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn scene_embeddings_receive_gradients() {
        let data = generate(&GeneratorConfig::tiny(122)).unwrap();
        let m = Kgat::new(&data, 8, 2, 4, 2);
        let mut g = Graph::new(m.store());
        let p = m.build_score(&mut g, UserId(0), ItemId(0));
        let n = m.build_score(&mut g, UserId(0), ItemId(1));
        let loss = g.bpr_loss(p, n);
        let mut grads = GradStore::new(m.store());
        g.backward(loss, &mut grads);
        let scene_id = m.store().lookup("scene_emb").unwrap();
        assert!(
            grads.rows(scene_id).next().is_some(),
            "KG attention must route gradients to scene entities"
        );
    }

    #[test]
    fn learns_above_random() {
        let data = generate(&GeneratorConfig::tiny(123)).unwrap();
        let mut m = Kgat::new(&data, 8, 2, 4, 3);
        let cfg = TrainConfig {
            epochs: 6,
            learning_rate: 5e-3,
            lambda: 0.0,
            optimizer: OptimizerKind::RmsProp,
            eval_every: 0,
            patience: 0,
            threads: 2,
            ..TrainConfig::default()
        };
        let report = train(&mut m, &data, &cfg);
        assert!(report.final_loss() < report.epochs[0].mean_loss);
        let summary = test(&m, &data, &cfg);
        assert!(summary.metrics.ndcg > 0.2, "NDCG {}", summary.metrics.ndcg);
    }
}
