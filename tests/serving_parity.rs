//! Serving parity: the frozen engine must reproduce the training-side
//! scoring path **bit for bit**.
//!
//! `FrozenEngine` replays the model head through dense kernels instead of
//! the autodiff tape; any reassociated reduction, lossy export, or
//! tie-break drift would show up here as a `to_bits` mismatch. Covers
//! both head shapes: SceneRec (Eq. 14 rating MLP) and BPR-MF (dot +
//! item bias).

use scenerec_baselines::BprMf;
use scenerec_core::trainer::{train, TrainConfig};
use scenerec_core::{top_k_unseen, PairwiseModel, Precision, SceneRec, SceneRecConfig};
use scenerec_data::{generate, Dataset, GeneratorConfig};
use scenerec_graph::{ItemId, UserId};
use scenerec_serve::{
    replay, replay_sharded, replay_sharded_traced, responses_to_json, EngineConfig, FrozenEngine,
    ReplayConfig, Request, ShardReplayConfig, ShardedConfig, ShardedEngine,
};

const SAMPLED_USERS: u32 = 50;
const TOP_K: usize = 10;

fn dataset() -> Dataset {
    let mut cfg = GeneratorConfig::tiny(2021);
    cfg.num_users = 60; // enough to sample 50 distinct users
    generate(&cfg).expect("dataset generation")
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        eval_every: 0,
        patience: 0,
        threads: 2,
        ..TrainConfig::default()
    }
}

/// Exact-equality check of every score the engine produces against the
/// tape, plus top-K (items AND score bits) for the sampled users.
fn assert_parity<M: PairwiseModel + Sync>(model: &M, data: &Dataset) {
    let engine = FrozenEngine::from_model(model, data, EngineConfig::default())
        .unwrap_or_else(|e| panic!("freezing {} failed: {e}", model.name()));
    assert_eq!(engine.num_users(), data.num_users() as usize);
    assert_eq!(engine.num_items(), data.num_items() as usize);

    let all_items: Vec<ItemId> = (0..data.num_items()).map(ItemId).collect();
    let all_ids: Vec<u32> = (0..data.num_items()).collect();

    for user in 0..SAMPLED_USERS {
        // Full-catalog scores: exact f32 equality, compared as bits so a
        // -0.0/0.0 or NaN drift cannot slip through.
        let tape: Vec<u32> = model
            .score_values(UserId(user), &all_items)
            .iter()
            .map(|s| s.to_bits())
            .collect();
        let frozen: Vec<u32> = engine
            .score_items(user, &all_ids)
            .expect("engine scoring")
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(
            tape,
            frozen,
            "{}: user {user} frozen scores diverged from the tape",
            model.name()
        );

        // Top-K: identical items in identical order with identical bits.
        let served = engine.top_k(user, TOP_K).expect("engine top_k");
        let trained = top_k_unseen(model, data, UserId(user), TOP_K);
        assert_eq!(
            served.len(),
            trained.len(),
            "{}: user {user} top-k length",
            model.name()
        );
        for (rank, (a, b)) in served.iter().zip(&trained).enumerate() {
            assert_eq!(
                a.item,
                b.item,
                "{}: user {user} rank {rank} item mismatch",
                model.name()
            );
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{}: user {user} rank {rank} score bits mismatch",
                model.name()
            );
        }
    }
}

#[test]
fn scenerec_frozen_scores_match_tape_bit_for_bit() {
    let data = dataset();
    let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
    train(&mut model, &data, &train_cfg());
    assert_parity(&model, &data);
}

/// Every unseen item's score, through a 3-shard `ShardedEngine`, equals
/// the tape's ranking bit for bit (k = the whole catalog, so no item is
/// left out of the comparison).
fn assert_sharded_parity<M: PairwiseModel + Sync>(model: &M, data: &Dataset) {
    let sharded = ShardedEngine::from_model_quantized(
        model,
        data,
        Precision::F32,
        ShardedConfig::with_shards(3),
    )
    .unwrap_or_else(|e| panic!("sharding {} failed: {e}", model.name()));
    let k = data.num_items() as usize;
    for user in 0..SAMPLED_USERS {
        let served = sharded.top_k(user, k).expect("sharded top_k");
        let trained = top_k_unseen(model, data, UserId(user), k);
        let bits = |recs: &[scenerec_core::Recommendation]| {
            recs.iter()
                .map(|r| (r.item, r.score.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(&served),
            bits(&trained),
            "{}: user {user} sharded scores diverged from the tape",
            model.name()
        );
    }
}

/// The fused head kernel splits layer 1 of Eq. 14 at the user width. At
/// d = 13 the user ends mid-way through a lane chunk that the item then
/// fills, and the 26-wide input ends in a scalar tail.
#[test]
fn scenerec_frozen_scores_match_tape_at_ragged_dim() {
    let data = dataset();
    let mut model = SceneRec::new(SceneRecConfig::default().with_dim(13), &data);
    train(&mut model, &data, &train_cfg());
    assert_parity(&model, &data);
    assert_sharded_parity(&model, &data);
}

/// A deeper rating head (two hidden layers, 16 → 8): the later layers
/// run through the same 8-row blocks as layer 1, and the output layer
/// through the single-row path.
#[test]
fn scenerec_frozen_scores_match_tape_with_two_hidden_layers() {
    let data = dataset();
    let cfg = SceneRecConfig {
        rating_hidden: vec![16, 8],
        ..SceneRecConfig::default().with_dim(8)
    };
    let mut model = SceneRec::new(cfg, &data);
    train(&mut model, &data, &train_cfg());
    assert_parity(&model, &data);
    assert_sharded_parity(&model, &data);
}

#[test]
fn bprmf_frozen_scores_match_tape_bit_for_bit() {
    let data = dataset();
    let mut model = BprMf::new(&data, 16, 11);
    train(&mut model, &data, &train_cfg());
    assert_parity(&model, &data);
}

const OVERLAP_K: usize = 20;

fn trained_bprmf(data: &Dataset) -> BprMf {
    let mut model = BprMf::new(data, 16, 11);
    train(&mut model, data, &train_cfg());
    model
}

fn quantized_engine(
    model: &BprMf,
    data: &Dataset,
    precision: Precision,
    cache_capacity: usize,
) -> FrozenEngine {
    let config = EngineConfig {
        cache_capacity,
        ..EngineConfig::default()
    };
    FrozenEngine::from_model_quantized(model, data, precision, config)
        .unwrap_or_else(|e| panic!("{} engine: {e}", precision.name()))
}

/// Every quantized precision must serve byte-identical responses across
/// worker counts {1, 2, 4}: quantization changes which numbers the
/// engine computes, never whether those numbers depend on scheduling.
#[test]
fn quantized_replay_is_byte_identical_across_worker_counts() {
    let data = dataset();
    let model = trained_bprmf(&data);
    let requests: Vec<Request> = (0..SAMPLED_USERS)
        .map(|user| Request { user, k: OVERLAP_K })
        .collect();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let run = |workers: usize| {
            // A fresh engine per run so every request is a cold miss
            // regardless of worker interleaving.
            let engine = quantized_engine(&model, &data, precision, 0);
            let cfg = ReplayConfig {
                workers,
                max_batch: 16,
                ..ReplayConfig::default()
            };
            responses_to_json(&replay(&engine, &requests, &cfg))
        };
        let reference = run(1);
        for workers in [2usize, 4] {
            assert_eq!(
                run(workers),
                reference,
                "{}: bytes diverged at {workers} workers",
                precision.name()
            );
        }
    }
}

/// Int8 quantization is lossy, so we gate on ranking quality instead of
/// bits: mean top-20 overlap against the f32 engine must stay >= 0.95.
/// The f16 engine is held to the same bar (it is far above it).
#[test]
fn quantized_top_k_overlap_at_20_is_at_least_95_percent() {
    let data = dataset();
    let model = trained_bprmf(&data);
    let exact = quantized_engine(&model, &data, Precision::F32, 0);
    for precision in [Precision::F16, Precision::Int8] {
        let quant = quantized_engine(&model, &data, precision, 0);
        let mut kept = 0usize;
        let mut total = 0usize;
        for user in 0..SAMPLED_USERS {
            let want: std::collections::BTreeSet<ItemId> = exact
                .top_k(user, OVERLAP_K)
                .expect("f32 top_k")
                .iter()
                .map(|r| r.item)
                .collect();
            let got = quant.top_k(user, OVERLAP_K).expect("quant top_k");
            assert_eq!(got.len(), want.len(), "user {user} top-k length");
            kept += got.iter().filter(|r| want.contains(&r.item)).count();
            total += want.len();
        }
        let overlap = kept as f64 / total as f64;
        assert!(
            overlap >= 0.95,
            "{}: top-{OVERLAP_K} overlap {overlap:.4} < 0.95",
            precision.name()
        );
    }
}

/// The sharded engine is a partitioning of the single engine, not a new
/// scoring path: on a trained model, at every storage precision,
/// `replay_sharded` must render byte-identical responses to the
/// single-engine `replay` — and those bytes must not move across worker
/// counts {1, 2, 4}, since consistent-hash routing plus request-order
/// assembly make scheduling invisible.
#[test]
fn sharded_replay_is_byte_identical_to_single_engine_at_every_precision() {
    let data = dataset();
    let model = trained_bprmf(&data);
    let requests: Vec<Request> = (0..SAMPLED_USERS)
        .map(|user| Request { user, k: OVERLAP_K })
        .collect();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let engine = quantized_engine(&model, &data, precision, 0);
        let reference = responses_to_json(&replay(
            &engine,
            &requests,
            &ReplayConfig {
                max_batch: 16,
                ..ReplayConfig::default()
            },
        ));
        for workers in [1usize, 2, 4] {
            let sharded = ShardedEngine::from_model_quantized(
                &model,
                &data,
                precision,
                ShardedConfig::with_shards(4),
            )
            .unwrap_or_else(|e| panic!("{} sharded engine: {e}", precision.name()));
            let cfg = ShardReplayConfig {
                workers,
                max_batch: 16,
                ..ShardReplayConfig::default()
            };
            assert_eq!(
                responses_to_json(&replay_sharded(&sharded, &requests, &cfg)),
                reference,
                "{}: sharded bytes diverged at {workers} workers",
                precision.name()
            );
        }
    }
}

/// Sharded trace *structure* is a pure function of the request log and
/// the shard count: the coordinator assembles every span tree in
/// deterministic shard order, so the digest over all trees is pinned
/// across worker counts on a trained model too.
#[test]
fn sharded_trace_structure_digest_is_pinned_across_worker_counts() {
    use scenerec_obs::trace::structure_digest;

    let data = dataset();
    let model = trained_bprmf(&data);
    let engine = ShardedEngine::from_model_quantized(
        &model,
        &data,
        Precision::F32,
        ShardedConfig::with_shards(4),
    )
    .expect("sharded engine");
    let requests: Vec<Request> = (0..SAMPLED_USERS)
        .map(|user| Request { user, k: OVERLAP_K })
        .collect();
    let digest_at = |workers: usize| {
        let (responses, traces) = replay_sharded_traced(
            &engine,
            &requests,
            &ShardReplayConfig {
                workers,
                max_batch: 16,
                ..ShardReplayConfig::default()
            },
        );
        assert_eq!(traces.len(), responses.len());
        structure_digest(&traces)
    };
    let want = digest_at(1);
    for workers in [2usize, 4] {
        assert_eq!(
            want,
            digest_at(workers),
            "digest moved at {workers} workers"
        );
    }
}

/// Band size and kernel thread count must not perturb a single bit.
#[test]
fn parity_is_invariant_to_band_and_threads() {
    let data = dataset();
    let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
    train(&mut model, &data, &train_cfg());

    let reference = FrozenEngine::from_model(&model, &data, EngineConfig::default())
        .expect("freeze")
        .score_all(0)
        .expect("score");
    for (band, threads) in [(1usize, 1usize), (7, 2), (64, 4), (100_000, 3)] {
        let engine = FrozenEngine::from_model(
            &model,
            &data,
            EngineConfig {
                band,
                threads,
                cache_capacity: 0,
            },
        )
        .expect("freeze");
        let got = engine.score_all(0).expect("score");
        assert!(
            reference
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "band={band} threads={threads} perturbed scores"
        );
    }
}

/// A request log with every shape a micro-batch has to get right: the
/// same `(user, k)` twice in a row (so twice in one batch at any
/// `max_batch > 1`), one user at two different `k`, `k = 0`, and `k`
/// past the catalog (so above any user's unseen count).
fn batch_edge_log(num_items: usize) -> Vec<Request> {
    let mut log = Vec::new();
    for user in 0..12u32 {
        log.push(Request { user, k: TOP_K });
        if user % 3 == 0 {
            log.push(Request { user, k: TOP_K });
        }
        if user % 4 == 1 {
            log.push(Request { user, k: 3 });
        }
    }
    log.push(Request { user: 5, k: 0 });
    log.push(Request {
        user: 7,
        k: num_items + 5,
    });
    log.push(Request { user: 2, k: TOP_K });
    log
}

fn response_bytes(responses: &[scenerec_serve::Response]) -> String {
    responses_to_json(responses)
}

/// Micro-batch fusion is invisible: replaying the edge log at
/// `max_batch` 1, 3 and 32 on 1 and 2 workers serves exactly the bytes
/// of per-request `top_k` — and at f32 exactly `top_k_unseen` on the
/// tape — at f32, f16 and int8 on the batched MLP head. On one worker
/// the engine's cache counters match the one-at-a-time path too, also
/// with a cache small enough to evict within a batch. (With two
/// workers, whether a key repeated across batches hits depends on which
/// worker reaches it first, so only the bytes are pinned there.)
#[test]
fn batched_replay_equals_per_request_top_k_at_every_precision() {
    let data = dataset();
    let mut model = SceneRec::new(SceneRecConfig::default().with_dim(13), &data);
    train(&mut model, &data, &train_cfg());
    let log = batch_edge_log(data.num_items() as usize);
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        for capacity in [1024usize, 3] {
            let engine = || {
                let config = EngineConfig {
                    cache_capacity: capacity,
                    ..EngineConfig::default()
                };
                FrozenEngine::from_model_quantized(&model, &data, precision, config)
                    .unwrap_or_else(|e| panic!("{} engine: {e}", precision.name()))
            };
            let one_at_a_time = engine();
            let want: Vec<scenerec_serve::Response> = log
                .iter()
                .map(|r| scenerec_serve::Response {
                    user: r.user,
                    k: r.k,
                    recs: one_at_a_time.top_k(r.user, r.k).expect("top_k"),
                    error: None,
                    degraded: false,
                    partial_shards: Vec::new(),
                    overload: None,
                })
                .collect();
            if precision == Precision::F32 {
                for (r, resp) in log.iter().zip(&want) {
                    let tape = top_k_unseen(&model, &data, UserId(r.user), r.k);
                    let bits = |recs: &[scenerec_core::Recommendation]| {
                        recs.iter()
                            .map(|x| (x.item, x.score.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&resp.recs), bits(&tape), "user {} k {}", r.user, r.k);
                }
            }
            let want_bytes = response_bytes(&want);
            for max_batch in [1usize, 3, 32] {
                for workers in [1usize, 2] {
                    let engine = engine();
                    let cfg = ReplayConfig {
                        workers,
                        max_batch,
                        ..ReplayConfig::default()
                    };
                    let got = replay(&engine, &log, &cfg);
                    assert_eq!(
                        response_bytes(&got),
                        want_bytes,
                        "{} capacity {capacity} max_batch {max_batch} workers {workers}",
                        precision.name()
                    );
                    if workers == 1 {
                        assert_eq!(
                            engine.cache_stats(),
                            one_at_a_time.cache_stats(),
                            "{} capacity {capacity} max_batch {max_batch}: cache counters",
                            precision.name()
                        );
                        assert_eq!(engine.cache_len(), one_at_a_time.cache_len());
                    }
                }
            }
        }
    }
}
