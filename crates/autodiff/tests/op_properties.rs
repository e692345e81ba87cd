//! Property-based tests of tape-operator algebra: identities that must
//! hold for any input values, and gradient laws (linearity, chain rule
//! composition) verified against finite differences.

use proptest::prelude::*;
use scenerec_autodiff::{Act, GradStore, Graph, ParamStore};
use scenerec_tensor::Matrix;

/// Builds a store with a single embedding row holding `values`.
fn store_with_row(values: &[f32]) -> ParamStore {
    let mut store = ParamStore::new();
    store.add(
        "row",
        scenerec_autodiff::ParamKind::Embedding,
        Matrix::from_vec(1, values.len(), values.to_vec()).unwrap(),
    );
    store
}

fn grad_of_row(store: &ParamStore, grads: &GradStore) -> Vec<f32> {
    let id = store.lookup("row").unwrap();
    let dim = store.value(id).cols();
    grads
        .row(id, 0)
        .map_or_else(|| vec![0.0; dim], <[f32]>::to_vec)
}

fn finite_vec() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, 2..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// add/sub/mul forward values match element-wise math.
    #[test]
    fn elementwise_forward_laws(xs in finite_vec()) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a = g.constant_vec(&xs);
        let b = g.constant_vec(&xs);
        let sum = g.add(a, b);
        let diff = g.sub(a, b);
        let prod = g.mul(a, b);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert!((g.value(sum).get(i, 0) - 2.0 * x).abs() < 1e-5);
            prop_assert!(g.value(diff).get(i, 0).abs() < 1e-6);
            prop_assert!((g.value(prod).get(i, 0) - x * x).abs() < 1e-4);
        }
    }

    /// d(sum(x))/dx = 1 and d(c·sum(x))/dx = c — gradient linearity.
    #[test]
    fn gradient_linearity(xs in finite_vec(), c in -2.0f32..2.0) {
        let store = store_with_row(&xs);
        let id = store.lookup("row").unwrap();
        let _ = id;
        let mut grads = GradStore::new(&store);
        {
            let mut g = Graph::new(&store);
            let x = g.embed_row(store.lookup("row").unwrap(), 0);
            let s = g.sum(x);
            let scaled = g.scale(s, c);
            g.backward(scaled, &mut grads);
        }
        for &gv in &grad_of_row(&store, &grads) {
            prop_assert!((gv - c).abs() < 1e-5, "gv={gv} c={c}");
        }
    }

    /// Softmax output is a probability vector for any input.
    #[test]
    fn softmax_is_distribution(xs in finite_vec()) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant_vec(&xs);
        let p = g.softmax(x);
        let v = g.value(p);
        let total: f32 = v.as_slice().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-5);
        prop_assert!(v.as_slice().iter().all(|&q| (0.0..=1.0).contains(&q)));
    }

    /// Softmax gradients sum to ~0 (shift invariance) for any upstream
    /// gradient routed through a dot with a constant.
    #[test]
    fn softmax_grad_sums_to_zero(xs in finite_vec()) {
        let store = store_with_row(&xs);
        let mut grads = GradStore::new(&store);
        {
            let mut g = Graph::new(&store);
            let x = g.embed_row(store.lookup("row").unwrap(), 0);
            // embed_row yields a column vector of the row.
            let p = g.softmax(x);
            let w: Vec<f32> = (0..xs.len()).map(|i| i as f32 + 0.5).collect();
            let wv = g.constant_vec(&w);
            let loss = g.dot(p, wv);
            g.backward(loss, &mut grads);
        }
        let gsum: f32 = grad_of_row(&store, &grads).iter().sum();
        prop_assert!(gsum.abs() < 1e-4, "gsum={gsum}");
    }

    /// Activations are element-wise: applying to a vector equals applying
    /// to each scalar.
    #[test]
    fn activations_are_elementwise(xs in finite_vec()) {
        let store = ParamStore::new();
        for act in [Act::Sigmoid, Act::Relu, Act::Tanh, Act::LeakyRelu(0.1), Act::Identity] {
            let mut g = Graph::new(&store);
            let x = g.constant_vec(&xs);
            let y = g.activation(x, act);
            for (i, &v) in xs.iter().enumerate() {
                prop_assert!((g.value(y).get(i, 0) - act.apply(v)).abs() < 1e-5);
            }
        }
    }

    /// BPR loss is positive, and decreases as the score gap grows.
    #[test]
    fn bpr_loss_monotone_in_gap(base in -2.0f32..2.0, gap in 0.01f32..3.0) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let pos_hi = g.constant_scalar(base + gap);
        let pos_lo = g.constant_scalar(base + gap / 2.0);
        let neg = g.constant_scalar(base);
        let loss_hi = g.bpr_loss(pos_hi, neg);
        let loss_lo = g.bpr_loss(pos_lo, neg);
        prop_assert!(g.scalar(loss_hi) > 0.0);
        prop_assert!(g.scalar(loss_hi) < g.scalar(loss_lo));
    }

    /// Cosine of a vector with itself is 1 (for non-zero vectors), and
    /// concat-then-select round-trips values.
    #[test]
    fn cosine_self_and_select(xs in finite_vec()) {
        prop_assume!(xs.iter().any(|v| v.abs() > 1e-2));
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a = g.constant_vec(&xs);
        let c = g.cosine(a, a);
        prop_assert!((g.scalar(c) - 1.0).abs() < 1e-4);

        let b = g.constant_vec(&xs);
        let cat = g.concat(&[a, b]);
        for (i, &v) in xs.iter().enumerate() {
            let s1 = g.select(cat, i);
            let s2 = g.select(cat, xs.len() + i);
            prop_assert!((g.scalar(s1) - v).abs() < 1e-6);
            prop_assert!((g.scalar(s2) - v).abs() < 1e-6);
        }
    }

    /// weighted_embed_sum with one-hot weights equals the selected row.
    #[test]
    fn one_hot_attention_selects_row(xs in finite_vec(), hot in 0usize..2) {
        let dim = xs.len();
        let mut store = ParamStore::new();
        let mut table = Matrix::zeros(2, dim);
        table.set_row(0, &xs);
        let doubled: Vec<f32> = xs.iter().map(|v| v * 2.0).collect();
        table.set_row(1, &doubled);
        store.add("t", scenerec_autodiff::ParamKind::Embedding, table);
        let t = store.lookup("t").unwrap();

        let mut g = Graph::new(&store);
        let mut w = vec![0.0f32; 2];
        w[hot] = 1.0;
        let wv = g.constant_vec(&w);
        let out = g.weighted_embed_sum(t, &[0, 1], wv);
        let expected = if hot == 0 { &xs } else { &doubled };
        for (i, &e) in expected.iter().enumerate() {
            prop_assert!((g.value(out).get(i, 0) - e).abs() < 1e-5);
        }
    }
}
