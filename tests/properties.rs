//! Property-based integration tests (proptest) over cross-crate
//! invariants: generator configs, splits, metrics and graph construction.

use proptest::prelude::*;
use scenerec_data::split::LeaveOneOutSplit;
use scenerec_data::{generate, GeneratorConfig};
use scenerec_eval::metrics::{hit_at_k, ndcg_at_k, rank_of_positive, MetricSet};
use scenerec_graph::CsrGraph;
use scenerec_serve::select_top_k;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The serving top-K oracle: score candidates in ascending item order,
/// stable-sort descending by score (NaN-safe Equal fallback), truncate —
/// exactly what `scenerec_core::top_k_for_user` does after scoring.
fn brute_force_top_k(candidates: &[(u32, f32)], k: usize) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, f32)> = candidates.to_vec();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    v.truncate(k);
    v.into_iter().map(|(i, s)| (i, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid tiny-ish config generates a consistent dataset.
    #[test]
    fn generator_respects_config(
        seed in 0u64..1000,
        users in 10u32..40,
        items in 30u32..100,
        cats in 4u32..10,
        scenes in 2u32..8,
    ) {
        let mut cfg = GeneratorConfig::tiny(seed);
        cfg.num_users = users;
        cfg.num_items = items;
        cfg.num_categories = cats;
        cfg.num_scenes = scenes;
        cfg.scene_size_max = cfg.scene_size_max.min(cats);
        cfg.scene_size_min = cfg.scene_size_min.min(cfg.scene_size_max);
        let data = generate(&cfg).unwrap();
        prop_assert_eq!(data.num_users(), users);
        prop_assert_eq!(data.num_items(), items);
        prop_assert_eq!(data.scene_graph.num_categories(), cats);
        prop_assert_eq!(data.scene_graph.num_scenes(), scenes);
        // Split accounting is exact.
        prop_assert_eq!(
            data.interactions.num_interactions(),
            data.split.num_train() + 2 * data.split.num_eval_users()
        );
    }

    /// The rank of a positive is bounded by the number of negatives, and
    /// metrics are monotone in K.
    #[test]
    fn metric_invariants(pos in -10.0f32..10.0, negs in prop::collection::vec(-10.0f32..10.0, 0..50)) {
        let rank = rank_of_positive(pos, &negs);
        prop_assert!(rank <= negs.len());
        for k in 1..negs.len().max(2) {
            prop_assert!(hit_at_k(rank, k) <= hit_at_k(rank, k + 1));
            prop_assert!(ndcg_at_k(rank, k) <= ndcg_at_k(rank, k + 1) + 1e-7);
            prop_assert!(ndcg_at_k(rank, k) <= hit_at_k(rank, k));
        }
    }

    /// Aggregated metric sets stay in [0, 1] and HR dominates NDCG.
    #[test]
    fn metric_set_bounds(ranks in prop::collection::vec(0usize..120, 1..40), k in 1usize..20) {
        let m = MetricSet::from_ranks(&ranks, k);
        prop_assert!((0.0..=1.0).contains(&m.hr));
        prop_assert!((0.0..=1.0).contains(&m.ndcg));
        prop_assert!((0.0..=1.0).contains(&m.mrr));
        prop_assert!(m.ndcg <= m.hr + 1e-7);
        prop_assert!((m.precision - m.hr / k as f32).abs() < 1e-6);
    }

    /// Leave-one-out never leaks held-out items into training, for any
    /// positive-list shape.
    #[test]
    fn split_never_leaks(
        seed in 0u64..500,
        lists in prop::collection::vec(prop::collection::hash_set(0u32..200, 0..12), 1..20),
    ) {
        let positives: Vec<Vec<u32>> = lists.into_iter().map(|s| s.into_iter().collect()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let split = LeaveOneOutSplit::build(&positives, 200, 10, &mut rng);
        for inst in split.validation.iter().chain(&split.test) {
            prop_assert!(!split.train.iter().any(|&(u, i)| u == inst.user && i == inst.positive));
            // Negatives are never positives of that user.
            for n in &inst.negatives {
                prop_assert!(!positives[inst.user.index()].contains(&n.raw()));
            }
        }
        // Every positive is accounted for exactly once.
        let held: usize = split.validation.len() + split.test.len();
        let total: usize = positives.iter().map(Vec::len).sum();
        prop_assert_eq!(split.train.len() + held, total);
    }

    /// CSR round-trips arbitrary edge lists: every inserted edge is
    /// findable, weights merge additively.
    #[test]
    fn csr_contains_all_edges(
        edges in prop::collection::vec((0u32..30, 0u32..30, 0.1f32..5.0), 0..100),
    ) {
        let g = CsrGraph::from_edges(30, 30, edges.clone()).unwrap();
        for &(s, d, _) in &edges {
            prop_assert!(g.has_edge(s, d));
        }
        let total_weight: f32 = edges.iter().map(|e| e.2).sum();
        let stored_weight: f32 = g.iter_edges().map(|e| e.2).sum();
        prop_assert!((total_weight - stored_weight).abs() < 1e-3 * total_weight.max(1.0));
        // Transpose twice is identity.
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    /// The serving heap select matches the sort-and-truncate oracle for
    /// arbitrary finite scores and any k — including k = 0, k larger
    /// than the candidate count, and the empty candidate list.
    #[test]
    fn serve_top_k_matches_brute_force(
        scores in prop::collection::vec(-100.0f32..100.0, 0..80),
        k in 0usize..100,
    ) {
        let candidates: Vec<(u32, f32)> =
            scores.iter().enumerate().map(|(i, &s)| (i as u32, s)).collect();
        let got: Vec<(u32, u32)> = select_top_k(candidates.iter().copied(), k)
            .into_iter()
            .map(|r| (r.item.raw(), r.score.to_bits()))
            .collect();
        prop_assert_eq!(got, brute_force_top_k(&candidates, k));
    }

    /// With heavy ties (scores snapped to a coarse grid) the heap must
    /// reproduce the stable sort's tie order: ascending item id.
    #[test]
    fn serve_top_k_breaks_ties_like_stable_sort(
        raw in prop::collection::vec(0u32..4, 1..80),
        k in 0usize..90,
    ) {
        let candidates: Vec<(u32, f32)> =
            raw.iter().enumerate().map(|(i, &s)| (i as u32, s as f32)).collect();
        let got: Vec<(u32, u32)> = select_top_k(candidates.iter().copied(), k)
            .into_iter()
            .map(|r| (r.item.raw(), r.score.to_bits()))
            .collect();
        prop_assert_eq!(got, brute_force_top_k(&candidates, k));
    }

    /// Masking items out of the candidate stream behaves like an
    /// all-items-seen filter: with every candidate masked the result is
    /// empty; with a partial mask the surviving ranking equals the
    /// oracle over the surviving candidates.
    #[test]
    fn serve_top_k_respects_candidate_filtering(
        scores in prop::collection::vec(-10.0f32..10.0, 1..60),
        mask_mod in 1usize..4,
        k in 1usize..20,
    ) {
        let all: Vec<(u32, f32)> =
            scores.iter().enumerate().map(|(i, &s)| (i as u32, s)).collect();
        // "Seen" = every index divisible by mask_mod (mask_mod == 1 masks all).
        let unseen: Vec<(u32, f32)> = all
            .iter()
            .copied()
            .filter(|(i, _)| (*i as usize) % mask_mod != 0)
            .collect();
        let got: Vec<(u32, u32)> = select_top_k(unseen.iter().copied(), k)
            .into_iter()
            .map(|r| (r.item.raw(), r.score.to_bits()))
            .collect();
        prop_assert_eq!(got, brute_force_top_k(&unseen, k));
        if mask_mod == 1 {
            prop_assert!(got.is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// Shard equivalence: a ShardedEngine is byte-identical to the single
// FrozenEngine on the same frozen model — at any shard count, any
// precision, any k (including 0 and > candidates), under any seen mask
// (including all-seen), with ties straddling every shard boundary.
// ---------------------------------------------------------------------

use scenerec_core::{FrozenHead, FrozenModel, Precision, Recommendation};
use scenerec_serve::{EngineConfig, FrozenEngine, ShardedConfig, ShardedEngine};
use scenerec_tensor::Matrix;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded dot-bias model. `tie_heavy` snaps embeddings to a 3-value
/// grid so distinct items collide on exact scores in long runs.
fn random_frozen(
    seed: u64,
    num_users: usize,
    num_items: usize,
    dim: usize,
    tie_heavy: bool,
) -> FrozenModel {
    let mut state = seed;
    let mut next = move || {
        state = splitmix64(state.wrapping_add(1));
        if tie_heavy {
            ((state % 3) as f32 - 1.0) * 0.5
        } else {
            (state >> 40) as f32 / 8_388_608.0 - 1.0
        }
    };
    let users = Matrix::from_vec(
        num_users,
        dim,
        (0..num_users * dim).map(|_| next()).collect(),
    )
    .unwrap();
    let items = Matrix::from_vec(
        num_items,
        dim,
        (0..num_items * dim).map(|_| next()).collect(),
    )
    .unwrap();
    let bias = (0..num_items).map(|_| next() * 0.125).collect();
    FrozenModel::dense("prop", users, items, FrozenHead::DotBias { bias })
}

fn rec_bits(recs: &[Recommendation]) -> Vec<(u32, u32)> {
    recs.iter()
        .map(|r| (r.item.raw(), r.score.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random models, every precision, shard counts {1,2,4,8}: sharded
    /// top-K equals the single engine bit-for-bit — including k = 0,
    /// k beyond the candidate count, and users whose entire catalog is
    /// masked as seen (`seen_mod == 1`).
    #[test]
    fn sharded_engine_is_bit_identical_to_single_engine(
        seed in 0u64..1_000_000,
        num_users in 1usize..6,
        num_items in 1usize..80,
        dim in 1usize..8,
        tie_idx in 0usize..2,
        seen_mod in 1usize..5,
        precision_idx in 0usize..3,
        k in 0usize..100,
    ) {
        let precision = [Precision::F32, Precision::F16, Precision::Int8][precision_idx];
        let tie_heavy = tie_idx == 1;
        let frozen = random_frozen(seed, num_users, num_items, dim, tie_heavy)
            .quantize(precision)
            .unwrap();
        // `seen_mod == 1` marks every item seen for every user.
        let seen: Vec<Vec<u32>> = (0..num_users)
            .map(|u| {
                (0..num_items as u32)
                    .filter(|i| (*i as usize + u) % seen_mod == 0)
                    .collect()
            })
            .collect();
        let single = FrozenEngine::new(frozen.clone(), &seen, EngineConfig::default()).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let sharded =
                ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(shards))
                    .unwrap();
            for user in 0..num_users as u32 {
                for k in [0usize, 1, k, num_items, num_items + 7] {
                    let want = single.top_k(user, k).unwrap();
                    let got = sharded.top_k(user, k).unwrap();
                    prop_assert_eq!(
                        rec_bits(&want),
                        rec_bits(&got),
                        "shards={} user={} k={} precision={}",
                        shards, user, k, precision.name()
                    );
                    if seen_mod == 1 {
                        prop_assert!(got.is_empty());
                    }
                }
            }
        }
    }

    /// Adversarial tie runs straddling every shard boundary: all items
    /// score on a tiny cyclic grid, so every contiguous partition cuts
    /// through maximal tie runs — the merge must still reproduce the
    /// single engine's ascending-item tie order exactly.
    #[test]
    fn boundary_straddling_ties_merge_exactly(
        num_items in 8usize..120,
        cycle in 2usize..7,
        k in 1usize..130,
    ) {
        let users = Matrix::from_vec(1, 1, vec![1.0]).unwrap();
        let items = Matrix::from_vec(
            num_items,
            1,
            (0..num_items).map(|i| (i % cycle) as f32 * 0.25).collect(),
        )
        .unwrap();
        let frozen = FrozenModel::dense(
            "ties",
            users,
            items,
            FrozenHead::DotBias { bias: vec![0.0; num_items] },
        );
        let single =
            FrozenEngine::new(frozen.clone(), &[Vec::new()], EngineConfig::default()).unwrap();
        let want = rec_bits(&single.top_k(0, k).unwrap());
        for shards in [1usize, 2, 4, 8] {
            let sharded =
                ShardedEngine::new_unseen(frozen.clone(), ShardedConfig::with_shards(shards))
                    .unwrap();
            prop_assert_eq!(
                &want,
                &rec_bits(&sharded.top_k(0, k).unwrap()),
                "shards={} cycle={} k={}",
                shards, cycle, k
            );
        }
    }
}

// ---------------------------------------------------------------------
// Admission control (scenerec_serve::admission): the overload gate is a
// pure plan. Accounting is exact, verdicts are causal in arrival order,
// and bounded replays are byte-identical at any worker count.
// ---------------------------------------------------------------------

use scenerec_serve::{
    admission_plan, replay_bounded, responses_to_json, AdmissionConfig, BoundedReplayConfig, Lane,
    ReplayConfig, Request, TimedRequest, Verdict,
};

/// Builds a trace from (gap, user, k) triples: cumulative bursty ticks
/// over a small user space so lanes and capacities genuinely contend.
fn arrivals_from(parts: &[(u64, u32, usize)]) -> Vec<TimedRequest> {
    let mut tick = 0u64;
    parts
        .iter()
        .map(|&(gap, user, k)| {
            tick += gap;
            TimedRequest {
                arrive_tick: tick,
                request: Request {
                    user: user % 6,
                    k: 1 + k % 3,
                },
            }
        })
        .collect()
}

/// Arbitrary small admission configs, including zero capacities, from a
/// knob tuple (the vendored proptest has no `prop_compose!`).
type CfgKnobs = ((usize, usize), (u32, u32), (u64, u32));

fn admission_cfg_from(knobs: CfgKnobs) -> AdmissionConfig {
    let (
        (fast_capacity, cold_capacity),
        (fast_weight, cold_weight),
        (drain_every_ticks, drain_per_round),
    ) = knobs;
    AdmissionConfig {
        fast_capacity,
        cold_capacity,
        fast_weight,
        cold_weight,
        drain_every_ticks,
        drain_per_round,
    }
}

fn cfg_knobs() -> impl Strategy<Value = CfgKnobs> {
    (
        (0usize..8, 0usize..8),
        (1u32..6, 1u32..4),
        (1u64..10, 1u32..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every arrival is either admitted or shed — never
    /// both, never neither — for any trace and any config, and the
    /// per-lane counters agree with the verdict list exactly.
    #[test]
    fn admission_accounting_is_exact(
        parts in prop::collection::vec((0u64..30, 0u32..16, 0usize..5), 0..120),
        knobs in cfg_knobs(),
    ) {
        let cfg = admission_cfg_from(knobs);
        let arrivals = arrivals_from(&parts);
        let plan = admission_plan(&arrivals, &cfg);
        prop_assert_eq!(plan.offered(), arrivals.len());
        prop_assert_eq!(plan.admitted() + plan.shed(), plan.offered());
        for lane in [Lane::Fast, Lane::Cold] {
            let admitted = plan
                .verdicts
                .iter()
                .filter(|v| matches!(v, Verdict::Admit { lane: l, .. } if *l == lane))
                .count();
            let shed = plan
                .verdicts
                .iter()
                .filter(|v| matches!(v, Verdict::Shed(i) if i.lane == lane))
                .count();
            prop_assert_eq!(admitted, plan.admitted_by_lane[lane.index()]);
            prop_assert_eq!(shed, plan.shed_by_lane[lane.index()]);
            prop_assert!(plan.peak_depth_by_lane[lane.index()] <= match lane {
                Lane::Fast => cfg.fast_capacity,
                Lane::Cold => cfg.cold_capacity,
            });
        }
        // Every shed is typed with a full queue and a positive retry hint.
        for v in &plan.verdicts {
            if let Verdict::Shed(info) = v {
                let cap = match info.lane {
                    Lane::Fast => cfg.fast_capacity,
                    Lane::Cold => cfg.cold_capacity,
                };
                prop_assert!(info.queue_depth >= cap, "shed below capacity");
                prop_assert!(info.retry_after_ticks >= 1);
            }
        }
    }

    /// Purity and causality: the plan is a function of (arrival order,
    /// ticks, config) alone — recomputing it changes nothing, and
    /// appending future arrivals never rewrites past verdicts.
    #[test]
    fn shed_decisions_are_pure_and_causal(
        parts in prop::collection::vec((0u64..30, 0u32..16, 0usize..5), 1..100),
        cut in 0usize..100,
        knobs in cfg_knobs(),
    ) {
        let cfg = admission_cfg_from(knobs);
        let arrivals = arrivals_from(&parts);
        let plan = admission_plan(&arrivals, &cfg);
        prop_assert_eq!(&plan, &admission_plan(&arrivals, &cfg));
        let m = cut.min(arrivals.len());
        let prefix = admission_plan(&arrivals[..m], &cfg);
        prop_assert_eq!(
            &prefix.verdicts[..],
            &plan.verdicts[..m],
            "a later arrival changed an earlier verdict"
        );
    }

    /// Worker-count invariance end to end: the bounded replay returns
    /// the same plan and byte-identical responses at workers {1, 2, 4} —
    /// shedding is decided before any worker exists, and the weighted
    /// two-lane drain preserves the response order.
    #[test]
    fn bounded_replay_is_byte_identical_across_workers(
        seed in 0u64..100_000,
        parts in prop::collection::vec((0u64..6, 0u32..6, 0usize..3), 1..60),
        knobs in cfg_knobs(),
        max_batch in 1usize..6,
    ) {
        let cfg = admission_cfg_from(knobs);
        let frozen = random_frozen(seed, 6, 12, 4, false);
        let seen: Vec<Vec<u32>> = vec![Vec::new(); 6];
        let arrivals = arrivals_from(&parts);
        let mut reference: Option<(String, _)> = None;
        for workers in [1usize, 2, 4] {
            let engine =
                FrozenEngine::new(frozen.clone(), &seen, EngineConfig::default()).unwrap();
            let bounded = BoundedReplayConfig {
                replay: ReplayConfig {
                    workers,
                    max_batch,
                    ..ReplayConfig::default()
                },
                admission: cfg.clone(),
            };
            let (out, plan) = replay_bounded(&engine, &arrivals, &bounded);
            prop_assert_eq!(out.len(), arrivals.len());
            let rendered = responses_to_json(&out);
            match &reference {
                None => reference = Some((rendered, plan)),
                Some((want_bytes, want_plan)) => {
                    prop_assert_eq!(want_plan, &plan, "workers={} changed the plan", workers);
                    prop_assert_eq!(
                        want_bytes,
                        &rendered,
                        "workers={} changed the bytes",
                        workers
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Retry backoff (scenerec_faults::Backoff): the schedule the serving
// scheduler and chaos suite rely on must be a pure, bounded, monotone
// function of the attempt index.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The schedule is deterministic: two independently constructed
    /// instances with the same parameters produce identical delays.
    #[test]
    fn backoff_is_deterministic(base in 0u64..1_000, cap in 0u64..10_000, attempt in 0u32..100) {
        let a = scenerec_serve::Backoff::new(base, cap);
        let b = scenerec_serve::Backoff::new(base, cap);
        prop_assert_eq!(a.ticks(attempt), b.ticks(attempt));
        prop_assert_eq!(a.total_ticks(attempt), b.total_ticks(attempt));
    }

    /// Delays never shrink as attempts accumulate, and every single
    /// delay is bounded by the cap — even at saturating attempt counts.
    #[test]
    fn backoff_is_monotone_and_bounded(base in 0u64..1_000, cap in 0u64..10_000) {
        let b = scenerec_serve::Backoff::new(base, cap);
        let mut prev = 0u64;
        for attempt in 0..70u32 {
            let t = b.ticks(attempt);
            prop_assert!(t <= cap, "attempt {} exceeded cap: {} > {}", attempt, t, cap);
            prop_assert!(t >= prev, "attempt {} shrank: {} < {}", attempt, t, prev);
            prev = t;
        }
        // Totals are consistent with the per-attempt schedule.
        let total: u64 = (0..10).map(|a| b.ticks(a)).sum();
        prop_assert_eq!(b.total_ticks(10), total);
    }

    /// Worker-count invariant: the delay for attempt `a` does not depend
    /// on which worker (or how many workers) computes it — N "workers"
    /// evaluating the same schedule see identical tick sequences, so
    /// retry timing cannot introduce cross-worker nondeterminism.
    #[test]
    fn backoff_is_identical_across_workers(
        base in 1u64..500,
        cap in 1u64..5_000,
        workers in 1usize..8,
    ) {
        let reference: Vec<u64> =
            (0..32u32).map(|a| scenerec_serve::Backoff::new(base, cap).ticks(a)).collect();
        for _ in 0..workers {
            let b = scenerec_serve::Backoff::new(base, cap);
            let seen: Vec<u64> = (0..32u32).map(|a| b.ticks(a)).collect();
            prop_assert_eq!(&seen, &reference);
        }
    }
}

// ---------------------------------------------------------------------
// The batched MLP rating-head kernel against the layer-by-layer
// reference (`try_score_bt` + `Act::apply`), bit for bit, per user, on
// both kernel backends in one process: user batches of 1, 2, 7 and 33,
// item counts around the 8-item tile (including none), user widths that
// split a lane chunk, inputs ending in a scalar tail, hidden widths
// around 8, up to two hidden layers, every activation, and adversarial
// values (signed zeros, subnormals, tie-prone grids) with NaN and ±inf
// inputs.
// ---------------------------------------------------------------------

use scenerec_autodiff::Act;
use scenerec_tensor::score::{
    score_mlp_head_with_backend, try_score_bt_with_backend, HeadLayer, MlpHead,
};
use scenerec_tensor::Backend;

const HEAD_USER_DIMS: [usize; 5] = [1, 3, 8, 13, 32];
const HEAD_HIDDEN: [usize; 5] = [1, 5, 8, 17, 32];
/// One user (products built in registers only), two (the second user
/// stores them), three (the first to read them back), and up to 64, the
/// largest serving `max_batch`.
const HEAD_BATCHES: [usize; 6] = [1, 2, 3, 7, 33, 64];
const HEAD_ACTS: [Act; 5] = [
    Act::Identity,
    Act::Sigmoid,
    Act::Relu,
    Act::Tanh,
    Act::LeakyRelu(0.2),
];

/// Ordinary values mixed with `-0.0`/`+0.0`, signed subnormals, and a
/// coarse grid whose products and partial sums collide exactly.
fn adversarial_values(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = splitmix64(state);
            let sign = if state & 1 == 0 { 1.0 } else { -1.0 };
            match (state >> 1) % 8 {
                0 => -0.0,
                1 => 0.0,
                2 => sign * f32::from_bits(1 + ((state >> 8) % 0x7f_ffff) as u32),
                3 | 4 => ((state >> 16) % 5) as f32 * 0.25 - 0.5,
                _ => (state >> 40) as f32 / 8_388_608.0 - 1.0,
            }
        })
        .collect()
}

/// The NaN this CPU's arithmetic generates (`inf + -inf`; the x86
/// default NaN is `0xffc0_0000`), computed at run time so constant
/// folding cannot substitute another payload.
fn generated_nan() -> f32 {
    let (inf, neg_inf) = std::hint::black_box((f32::INFINITY, f32::NEG_INFINITY));
    inf + neg_inf
}

/// [`adversarial_values`] with about one value in 16 replaced by NaN,
/// `+inf` or `-inf`: the user and item inputs of the head.
///
/// The NaN inputs carry the bits of [`generated_nan`]. When an add or
/// multiply meets two NaNs, which payload it returns depends on operand
/// order, and Rust leaves that order to the compiler (it may swap the
/// operands of a commutative op), so two correct kernels can disagree
/// on a NaN's bits. With one NaN pattern in play, comparing by bits
/// still pins where NaNs appear and what each activation maps them to.
fn head_inputs(seed: u64, n: usize) -> Vec<f32> {
    let nan = generated_nan();
    let mut state = seed ^ 0x9e37;
    adversarial_values(seed, n)
        .into_iter()
        .map(|v| {
            state = splitmix64(state);
            match state % 48 {
                0 => nan,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => v,
            }
        })
        .collect()
}

/// Runs `[user ‖ item]` rows through the stack one layer at a time, the
/// pre-fusion serving path.
fn head_reference(
    layers: &[(Matrix, Vec<f32>, Act)],
    user: &[f32],
    items: &Matrix,
    backend: Backend,
) -> Vec<u32> {
    let mut h = Matrix::zeros(items.rows(), user.len() + items.cols());
    for r in 0..items.rows() {
        let row = h.row_mut(r);
        row[..user.len()].copy_from_slice(user);
        row[user.len()..].copy_from_slice(items.row(r));
    }
    for (w, b, act) in layers {
        let mut y = try_score_bt_with_backend(&h, w, Some(b), 1, backend).unwrap();
        for v in y.as_mut_slice() {
            *v = act.apply(*v);
        }
        h = y;
    }
    h.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_mlp_head_matches_layer_stack_bitwise(
        seed in 0u64..1_000_000,
        du_idx in 0usize..5,
        di in 1usize..20,
        hidden in prop::collection::vec(0usize..5, 1..3),
        acts in prop::collection::vec(0usize..5, 3),
        num_items in 0usize..40,
        batch_idx in 0usize..6,
    ) {
        let du = HEAD_USER_DIMS[du_idx];
        let batch = HEAD_BATCHES[batch_idx];
        let mut widths = vec![du + di];
        widths.extend(hidden.iter().map(|&h| HEAD_HIDDEN[h]));
        widths.push(1);
        let layers: Vec<(Matrix, Vec<f32>, Act)> = widths
            .windows(2)
            .enumerate()
            .map(|(li, io)| {
                let s = splitmix64(seed ^ (li as u64 + 1));
                let w = Matrix::from_vec(io[1], io[0], adversarial_values(s, io[0] * io[1])).unwrap();
                (w, adversarial_values(s ^ 7, io[1]), HEAD_ACTS[acts[li]])
            })
            .collect();
        let users: Vec<Vec<f32>> = (0..batch)
            .map(|u| head_inputs(seed ^ 0xa5 ^ ((u as u64) << 20), du))
            .collect();
        let items = Matrix::from_vec(num_items, di, head_inputs(seed ^ 0x5a, num_items * di)).unwrap();
        let mut want = Vec::with_capacity(batch * num_items);
        for user in &users {
            let scalar = head_reference(&layers, user, &items, Backend::Scalar);
            prop_assert_eq!(&head_reference(&layers, user, &items, Backend::Avx2), &scalar);
            want.extend(scalar);
        }

        let head = MlpHead::try_new(
            layers.iter().map(|(w, b, act)| HeadLayer { w, b, act: *act }),
            users.iter().map(Vec::as_slice),
        )
        .unwrap();
        prop_assert_eq!(head.item_dim(), di);
        prop_assert_eq!(head.num_users(), batch);
        for backend in [Backend::Scalar, Backend::Avx2] {
            let mut out = vec![f32::NAN; batch * num_items];
            let mut scratch = vec![0.0; head.scratch_len()];
            score_mlp_head_with_backend(&head, items.iter_rows(), &mut out, &mut scratch, backend)
                .unwrap();
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                &got, &want,
                "backend={} widths={:?} users={}", backend.name(), widths, batch
            );
        }
    }
}

// ---------------------------------------------------------------------
// Training-step kernels: the fused RMSProp update and the row arena
// ---------------------------------------------------------------------

use scenerec_autodiff::{GradStore, ParamKind, ParamStore};
use scenerec_tensor::update::{rmsprop_update_with_backend, RmsPropStep};
use std::collections::BTreeMap;

/// Optimizer-state values: ordinary magnitudes, `±0`, signed subnormals,
/// gradients below `2^-60` (whose squares underflow), `±inf` and NaN.
fn update_values(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = splitmix64(state);
            let sign = if state & 1 == 0 { 1.0 } else { -1.0 };
            match (state >> 1) % 12 {
                0 => -0.0,
                1 => 0.0,
                2 | 3 => sign * f32::from_bits(1 + ((state >> 8) % 0x7f_ffff) as u32),
                4 => sign * f32::from_bits(0x0d80_0000 + ((state >> 8) % 0x0100_0000) as u32),
                5 => sign * f32::INFINITY,
                6 => f32::NAN,
                _ => sign * ((state >> 40) as f32 / 16_777_216.0 - 0.5),
            }
        })
        .collect()
}

/// The RMSProp step written out per element, in the order the optimizer
/// has always used: the cache update, the gradient step, then (when
/// λ > 0) the decoupled decay.
fn rmsprop_reference(x: &mut [f32], c: &mut [f32], g: &[f32], step: RmsPropStep) {
    for ((x, c), &g) in x.iter_mut().zip(c.iter_mut()).zip(g) {
        *c = step.rho * *c + (1.0 - step.rho) * g * g;
        *x -= step.lr * g / (c.sqrt() + step.eps);
    }
    if let Some(f) = step.decay {
        for x in x.iter_mut() {
            *x -= f * *x;
        }
    }
}

const RHOS: [f32; 4] = [0.9, 0.99, 0.5, 0.0];
const LRS: [f32; 3] = [1e-3, 1e-2, 0.5];
const LAMBDAS: [f32; 3] = [0.0, 1e-6, 1e-2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The kernel equals the written-out scalar reference bit for bit on
    /// both backends, for every length 0..37 (all AVX2 tails), with and
    /// without weight decay, on states full of `±0`, subnormals, squares
    /// that underflow, infinities and NaN.
    #[test]
    fn rmsprop_update_matches_scalar_reference_bitwise(
        seed in 0u64..1_000_000,
        len in 0usize..37,
        rho in 0usize..4,
        lr in 0usize..3,
        lambda in 0usize..3,
        nonnegative_cache in 0u32..2,
    ) {
        let lambda = LAMBDAS[lambda];
        let step = RmsPropStep {
            rho: RHOS[rho],
            lr: LRS[lr],
            eps: 1e-8,
            decay: (lambda != 0.0).then(|| LRS[lr] * 2.0 * lambda),
        };
        let x0 = update_values(seed, len);
        let mut c0 = update_values(seed ^ 0x1f, len);
        if nonnegative_cache == 1 {
            c0.iter_mut().for_each(|c| *c = c.abs());
        }
        let g = update_values(seed ^ 0x2e, len);
        let (mut x_want, mut c_want) = (x0.clone(), c0.clone());
        rmsprop_reference(&mut x_want, &mut c_want, &g, step);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        for backend in [Backend::Scalar, Backend::Avx2] {
            let (mut x, mut c) = (x0.clone(), c0.clone());
            rmsprop_update_with_backend(&mut x, &mut c, &g, step, backend);
            prop_assert_eq!(bits(&c), bits(&c_want), "cache, backend={}", backend.name());
            prop_assert_eq!(bits(&x), bits(&x_want), "value, backend={}", backend.name());
        }
    }
}

/// Two embedding tables (dims 3 and 5) behind one dense parameter.
fn arena_store() -> ParamStore {
    let mut store = ParamStore::new();
    store.add("w", ParamKind::Dense, Matrix::zeros(2, 2));
    store.add("a", ParamKind::Embedding, Matrix::zeros(64, 3));
    store.add("b", ParamKind::Embedding, Matrix::zeros(200, 5));
    store
}

/// One `add_row_scaled` call: `(table 1|2, row, alpha index, seed)`.
type RowOp = (usize, u32, usize, u64);

const ALPHAS: [f32; 4] = [1.0, 0.5, -1.0, 0.25];

fn row_ops() -> impl Strategy<Value = Vec<RowOp>> {
    prop::collection::vec((1usize..3, 0u32..40, 0usize..4, 0u64..1_000_000), 0..60)
}

fn apply_ops(store: &ParamStore, ops: &[RowOp]) -> GradStore {
    let mut g = GradStore::new(store);
    for &(table, row, alpha, seed) in ops {
        let alpha = ALPHAS[alpha];
        let id = store.iter().nth(table).unwrap().0;
        let dim = store.value(id).cols();
        g.add_row_scaled(id, row, alpha, &adversarial_values(seed, dim));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the insertion order, the arena iterates rows in ascending
    /// order with the same sums as an ordered row map fed the same calls,
    /// and `global_norm` equals the row-map-order sum bit for bit.
    #[test]
    fn row_arena_matches_ordered_row_map(ops in row_ops(), dense in -2.0f32..2.0) {
        let store = arena_store();
        let mut g = apply_ops(&store, &ops);
        let w = store.lookup("w").unwrap();
        g.add_dense(w, &Matrix::full(2, 2, dense));

        let mut model: Vec<BTreeMap<u32, Vec<f32>>> = vec![BTreeMap::new(); 3];
        for &(table, row, alpha, seed) in &ops {
            let alpha = ALPHAS[alpha];
            let dim = store.value(store.iter().nth(table).unwrap().0).cols();
            let slot = model[table].entry(row).or_insert_with(|| vec![0.0; dim]);
            for (s, v) in slot.iter_mut().zip(adversarial_values(seed, dim)) {
                *s += alpha * v;
            }
        }
        let mut sq = 0.0f32;
        sq += g.dense(w).unwrap().as_slice().iter().map(|v| v * v).sum::<f32>();
        for (table, rows) in model.iter().enumerate() {
            let id = store.iter().nth(table).unwrap().0;
            let got: Vec<(u32, Vec<u32>)> = g
                .rows(id)
                .map(|(r, v)| (r, v.iter().map(|f| f.to_bits()).collect()))
                .collect();
            let want: Vec<(u32, Vec<u32>)> = rows
                .iter()
                .map(|(&r, v)| (r, v.iter().map(|f| f.to_bits()).collect()))
                .collect();
            prop_assert_eq!(got, want);
            for row in rows.values() {
                sq += row.iter().map(|v| v * v).sum::<f32>();
            }
        }
        prop_assert_eq!(g.global_norm().to_bits(), sq.sqrt().to_bits());
    }

    /// Per-example stores merged in example order into a reused (cleared)
    /// accumulator give the bits of the same merge over ordered row maps
    /// (fresh rows start at `+0.0`, then `slot += 1.0 * x`), wherever the
    /// example boundaries fall.
    #[test]
    fn row_arena_merge_matches_ordered_row_map_merge(
        ops in row_ops(),
        cuts in prop::collection::vec(0usize..60, 0..6),
    ) {
        let store = arena_store();
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(ops.len())).collect();
        bounds.extend([0, ops.len()]);
        bounds.sort_unstable();
        let mut acc = apply_ops(&store, &ops[..ops.len() / 2]);
        acc.clear();
        let mut model: Vec<BTreeMap<u32, Vec<f32>>> = vec![BTreeMap::new(); 3];
        for span in bounds.windows(2) {
            let example = apply_ops(&store, &ops[span[0]..span[1]]);
            acc.merge(&example);
            for (table, rows) in model.iter_mut().enumerate().skip(1) {
                let id = store.iter().nth(table).unwrap().0;
                let dim = store.value(id).cols();
                for (r, v) in example.rows(id) {
                    let slot = rows.entry(r).or_insert_with(|| vec![0.0; dim]);
                    for (s, x) in slot.iter_mut().zip(v) {
                        *s += 1.0 * x;
                    }
                }
            }
        }
        for (table, rows) in model.iter().enumerate().skip(1) {
            let id = store.iter().nth(table).unwrap().0;
            let got: Vec<(u32, Vec<u32>)> = acc
                .rows(id)
                .map(|(r, v)| (r, v.iter().map(|f| f.to_bits()).collect()))
                .collect();
            let want: Vec<(u32, Vec<u32>)> = rows
                .iter()
                .map(|(&r, v)| (r, v.iter().map(|f| f.to_bits()).collect()))
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
