//! Layer probes for traced runs: short, spanned calls into each
//! layer's public functions on the workload's own model, data and
//! engines, so every per-layer time is measured on every workload at
//! that workload's scale. Each probe also checks what it can: the miss
//! probe re-derives `top_k` from `score_items` + `select_top_k`, and the
//! hit probe re-derives the sharded answer with `merge_top_k`.

use crate::common::{self, TapeStats};
use crate::inputs;
use crate::measure::Recorder;
use scenerec_core::trainer::{make_optimizer, validate, TrainConfig};
use scenerec_core::{FrozenModel, Recommendation, SceneRec};
use scenerec_data::Dataset;
use scenerec_graph::{ItemId, UserId};
use scenerec_serve::{
    admission_plan, merge_top_k, select_top_k, AdmissionConfig, FrozenEngine, ShardedConfig,
    ShardedEngine, TimedRequest,
};
use std::collections::BTreeMap;

/// Shards of the engines the hit-side probes run on.
pub const PROBE_SHARDS: usize = 4;
/// Increments per `obs.counter_inc` span.
pub const COUNTER_INCS: usize = 1_000;

/// How many calls each probe makes.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// (user, item) pairs for the Eq. 1/2/13/14 probe.
    pub core_pairs: usize,
    /// BPR examples for the training probe (0: the main run trained).
    pub train_examples: usize,
    /// Validation users for the eval probe (0: the main run validated).
    pub eval_users: usize,
    /// Users for the cold-miss probe.
    pub miss_users: usize,
    /// Users for the hit-side probes.
    pub hit_users: usize,
    /// Repeats of each hit-side call.
    pub hit_repeats: usize,
    /// `mark_seen` + refill pairs.
    pub writes: usize,
    /// `admission_plan` calls.
    pub plans: usize,
    /// `obs.counter_inc` spans.
    pub counter_spans: usize,
}

/// Eq. 1, Eq. 2, Eqs. 2–13 and the full pair score, each on a fresh
/// tape so no call reuses another's cached nodes.
pub fn core_probe(model: &SceneRec, data: &Dataset, n: usize, seed: u64, rec: &mut Recorder) {
    let users = inputs::sample_users(data.num_users(), n, seed, 10);
    let num_items = data.num_items().max(1);
    let root = rec.begin("probe.core");
    for (j, &u) in users.iter().enumerate() {
        let i = ((u64::from(u) * 7919 + j as u64 * 104_729) % u64::from(num_items)) as u32;
        let fresh = || scenerec_autodiff::Graph::new(scenerec_core::PairwiseModel::store(model));
        let mut g = fresh();
        rec.span("core.user_repr", || model.user_repr(&mut g, UserId(u)));
        let mut g = fresh();
        rec.span("core.item_user_repr", || {
            model.item_user_repr(&mut g, ItemId(i))
        });
        let mut g = fresh();
        rec.span("core.item_repr", || {
            model.item_repr(
                &mut g,
                ItemId(i),
                &mut BTreeMap::new(),
                &mut BTreeMap::new(),
            )
        });
        let mut g = fresh();
        rec.span("core.score", || {
            scenerec_core::PairwiseModel::build_score(model, &mut g, UserId(u), ItemId(i))
        });
    }
    rec.end(root);
    rec.finish();
}

/// A short mirrored BPR run on the workload's model.
pub fn train_probe(
    model: &mut SceneRec,
    data: &Dataset,
    tc: &TrainConfig,
    examples: usize,
    rec: &mut Recorder,
) -> TapeStats {
    let mut opt = make_optimizer(tc);
    let known = common::known_positives(data);
    let mut tape = TapeStats::default();
    common::mirror_epoch(
        model,
        data,
        tc,
        opt.as_mut(),
        &known,
        Some(examples),
        rec,
        &mut tape,
    );
    tape
}

/// `trainer::validate` over the first `users` validation instances.
pub fn eval_probe(
    model: &SceneRec,
    data: &mut Dataset,
    tc: &TrainConfig,
    users: usize,
    rec: &mut Recorder,
) {
    let full = std::mem::take(&mut data.split.validation);
    data.split.validation = full.iter().take(users).cloned().collect();
    let root = rec.begin("probe.eval");
    rec.span("eval.validate", || validate(model, data, tc));
    rec.end(root);
    rec.finish();
    data.split.validation = full;
}

/// Cold-miss breakdown on a `FrozenEngine`: `top_k` on an evicted user,
/// then the same answer rebuilt from `score_items` and `select_top_k`.
/// Returns (mean candidates per miss, whether every rebuild matched).
///
/// # Errors
/// When the engine rejects a probe user.
pub fn miss_probe(
    engine: &FrozenEngine,
    users: &[u32],
    k: usize,
    rec: &mut Recorder,
) -> Result<(f64, bool), String> {
    let mut candidates_total = 0usize;
    let mut matched = true;
    let root = rec.begin("probe.miss");
    for &u in users {
        engine.invalidate_user(u);
        let served = rec
            .span("serve.top_k_miss", || engine.top_k(u, k))
            .map_err(|e| e.to_string())?;
        let mask = engine.seen_mask(u).map_err(|e| e.to_string())?;
        let candidates: Vec<u32> = (0..engine.num_items() as u32)
            .filter(|&i| !mask.contains(i))
            .collect();
        candidates_total += candidates.len();
        let scores = rec
            .span("serve.score_items", || engine.score_items(u, &candidates))
            .map_err(|e| e.to_string())?;
        let rebuilt = rec.span("serve.select_top_k", || {
            select_top_k(candidates.iter().copied().zip(scores.iter().copied()), k)
        });
        matched &= same_recs(&served, &rebuilt);
    }
    rec.end(root);
    rec.finish();
    Ok((candidates_total as f64 / users.len().max(1) as f64, matched))
}

/// Hit-side breakdown on a `ShardedEngine`: warm `top_k`, per-shard
/// `partial_top_k` hits and their `merge_top_k`, then `mark_seen`
/// writes each followed by the refill miss they cause. Returns whether
/// every merge reproduced the engine's answer.
///
/// # Errors
/// When the engine rejects a probe call.
pub fn hit_probe(
    engine: &mut ShardedEngine,
    users: &[u32],
    writes: &[(u32, u32)],
    k: usize,
    repeats: usize,
    rec: &mut Recorder,
) -> Result<bool, String> {
    let root = rec.begin("probe.hit");
    let mut answers = Vec::with_capacity(users.len());
    for &u in users {
        answers.push(engine.top_k(u, k).map_err(|e| e.to_string())?);
    }
    let mut matched = true;
    for _ in 0..repeats.max(1) {
        for (&u, answer) in users.iter().zip(&answers) {
            let hit = rec
                .span("serve.top_k_hit", || engine.top_k(u, k))
                .map_err(|e| e.to_string())?;
            let mut partials = Vec::with_capacity(engine.num_shards());
            for s in 0..engine.num_shards() {
                let p = rec
                    .span("serve.partial_hit", || engine.partial_top_k(s, u, k))
                    .map_err(|e| e.to_string())?;
                matched &= p.hit;
                partials.push(p.recs);
            }
            let merged = rec.span("serve.merge_top_k", || merge_top_k(&partials, k));
            matched &= same_recs(&hit, answer) && same_recs(&merged, answer);
        }
    }
    for &(u, item) in writes {
        rec.span("serve.mark_seen", || engine.mark_seen(u, item))
            .map_err(|e| e.to_string())?;
        let refill = rec
            .span("serve.refill_miss", || engine.top_k(u, k))
            .map_err(|e| e.to_string())?;
        matched &= refill.iter().all(|r| r.item.raw() != item);
    }
    rec.end(root);
    rec.finish();
    Ok(matched)
}

/// Builds the 4-shard engine the hit probe runs on.
///
/// # Errors
/// When the engine rejects the snapshot.
pub fn sharded(frozen: &FrozenModel, seen: &[Vec<u32>]) -> Result<ShardedEngine, String> {
    ShardedEngine::new(
        frozen.clone(),
        seen,
        ShardedConfig::with_shards(PROBE_SHARDS),
    )
    .map_err(|e| e.to_string())
}

/// `admission_plan` over `trace`, `calls` times.
pub fn admission_probe(trace: &[TimedRequest], calls: usize, rec: &mut Recorder) {
    let cfg = AdmissionConfig::default();
    let root = rec.begin("probe.admission");
    for _ in 0..calls {
        let plan = rec.span("serve.admission_plan", || admission_plan(trace, &cfg));
        std::hint::black_box(plan);
    }
    rec.end(root);
    rec.finish();
}

/// `metrics::counter(..).inc()` — the registry lookup plus increment
/// every served request pays several times.
pub fn counter_probe(spans: usize, rec: &mut Recorder) {
    let root = rec.begin("probe.obs");
    for _ in 0..spans {
        rec.span("obs.counter_inc", || {
            for _ in 0..COUNTER_INCS {
                scenerec_obs::metrics::counter("perfbench/probe").inc();
            }
        });
    }
    rec.end(root);
    rec.finish();
}

/// Bit-for-bit equality of two recommendation lists (items and score
/// bits).
pub fn same_recs(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

/// The workload state the probe suite runs on.
pub struct ProbeTarget<'a> {
    /// The workload's model (the training probe updates it).
    pub model: &'a mut SceneRec,
    /// The workload's dataset.
    pub data: &'a mut Dataset,
    /// Training settings for the training and eval probes.
    pub tc: &'a TrainConfig,
    /// The frozen snapshot the engines serve.
    pub frozen: &'a FrozenModel,
    /// The workload's single engine (the miss probe's target).
    pub engine: &'a FrozenEngine,
    /// The workload's sharded engine, if it has one; otherwise the hit
    /// probe builds a 4-shard engine from `frozen`.
    pub sharded: Option<&'a mut ShardedEngine>,
    /// Seen lists the engines were built with (plus any writes).
    pub seen: &'a [Vec<u32>],
    /// Workload seed.
    pub seed: u64,
    /// Top-K of every probe request.
    pub k: usize,
}

/// What the probe suite measured beyond its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeReport {
    /// Tape statistics of the training probe.
    pub tape: TapeStats,
    /// Mean candidates per cold miss.
    pub candidates_per_miss: f64,
    /// Requests per `admission_plan` call.
    pub admission_requests: f64,
    /// Whether the miss rebuilds matched `top_k`.
    pub miss_matched: bool,
    /// Whether the hit-side merges matched `top_k`.
    pub hit_matched: bool,
}

/// Runs every probe `sizes` asks for on `t`, recording into `rec`.
///
/// # Errors
/// When an engine rejects a probe call.
pub fn run_probes(
    t: ProbeTarget<'_>,
    sizes: &ProbeSizes,
    rec: &mut Recorder,
) -> Result<ProbeReport, String> {
    let mut report = ProbeReport::default();
    core_probe(t.model, t.data, sizes.core_pairs, t.seed, rec);
    if sizes.train_examples > 0 {
        report.tape = train_probe(t.model, t.data, t.tc, sizes.train_examples, rec);
    }
    if sizes.eval_users > 0 {
        eval_probe(t.model, t.data, t.tc, sizes.eval_users, rec);
    }
    let num_users = t.data.num_users();
    let miss_users = inputs::sample_users(num_users, sizes.miss_users, t.seed, 11);
    let (candidates, miss_ok) = miss_probe(t.engine, &miss_users, t.k, rec)?;
    report.candidates_per_miss = candidates;
    report.miss_matched = miss_ok;

    let hit_users = inputs::sample_users(num_users, sizes.hit_users, t.seed, 12);
    let as_trace: Vec<TimedRequest> = inputs::requests(&hit_users, t.k)
        .into_iter()
        .map(|request| TimedRequest {
            arrive_tick: 0,
            request,
        })
        .collect();
    let writes = inputs::hot_writes(
        &as_trace,
        t.seen,
        t.data.num_items(),
        sizes.writes,
        t.seed,
        u64::MAX,
    );
    let mut owned;
    let engine = match t.sharded {
        Some(e) => e,
        None => {
            owned = sharded(t.frozen, t.seen)?;
            &mut owned
        }
    };
    report.hit_matched = hit_probe(engine, &hit_users, &writes, t.k, sizes.hit_repeats, rec)?;

    let shape = inputs::HotTraffic {
        requests: 4096,
        k: t.k,
        load: 0.5,
    };
    let trace = inputs::hot_round(num_users, shape, t.seed, u64::MAX);
    report.admission_requests = trace.len() as f64;
    admission_probe(&trace, sizes.plans, rec);
    counter_probe(sizes.counter_spans, rec);
    Ok(report)
}
