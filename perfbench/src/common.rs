//! Run configuration, sizes, and the pieces every workload shares:
//! seeded set-up, freezing, the mirrored BPR loop and the metric tables.

use crate::inputs::{derive, stream};
use crate::measure::{self, timed, Profile, Recorder};
use crate::report::Outcome;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scenerec_autodiff::optim::clip_global_norm;
use scenerec_autodiff::{GradStore, Graph, Optimizer};
use scenerec_bench::harness::HarnessConfig;
use scenerec_core::trainer::TrainConfig;
use scenerec_core::{FrozenHead, FrozenModel, PairwiseModel, SceneRec, SceneRecConfig, Variant};
use scenerec_data::{generate, Dataset, GeneratorConfig, Scale};
use scenerec_graph::{ItemId, UserId};
use scenerec_serve::{EngineConfig, FrozenEngine};
use scenerec_tensor::stats::RunningStats;
use std::collections::HashSet;
use std::path::PathBuf;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Generate → train → test → freeze → one cold top-10 per user.
    PipelineLaptop,
    /// Paper-scale true-miss serving through `replay`.
    ServeCold,
    /// Warm sharded serving of heavy-tailed traffic with cache writes.
    ServeHot,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::PipelineLaptop,
        Workload::ServeCold,
        Workload::ServeHot,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineLaptop => "pipeline-laptop",
            Workload::ServeCold => "serve-cold",
            Workload::ServeHot => "serve-hot",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input magnitude: the real benchmark, or a reduced smoke for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` promises.
    Full,
    /// Tiny inputs that exercise every code path in about a second.
    Smoke,
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measured duration for the time-bounded serving loops.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input magnitude.
    pub size: Size,
    /// Where the traced run writes its Chrome trace JSON.
    pub trace_out: Option<PathBuf>,
}

/// Training and evaluation threads: the Table 2 harness's
/// data-parallel evaluation on two threads.
pub const TRAIN_THREADS: usize = 2;

/// Replay workers of the serving workloads. One worker: on a shared
/// two-vCPU host, two workers' scaling drifts from run to run (1.2× to
/// 2×), which spread two-worker throughput by 26–32% across runs — wider
/// than any bound a regression gate can use.
pub const REPLAY_WORKERS: usize = 1;

/// Refuses a worker count above the host's core count, so a result can
/// never present oversubscription as scaling.
///
/// # Errors
/// When `workers > cores`.
pub fn check_workers(workers: usize, cores: usize) -> Result<(), String> {
    if workers > cores {
        Err(format!(
            "refusing {workers} workers on a {cores}-core host (oversubscription)"
        ))
    } else {
        Ok(())
    }
}

/// Checks both thread counts against the host and records the labels
/// every workload carries: host cores, kernel backend, thread counts.
///
/// # Errors
/// When either count exceeds the host's cores.
pub fn host_labels(out: &mut Outcome) -> Result<(), String> {
    let cores = measure::host_cores();
    check_workers(TRAIN_THREADS, cores)?;
    check_workers(REPLAY_WORKERS, cores)?;
    out.label("host_cores", cores);
    out.label("backend", scenerec_tensor::backend_name());
    out.label("train_threads", TRAIN_THREADS);
    out.label("replay_workers", REPLAY_WORKERS);
    Ok(())
}

/// The Table 2 harness settings with the workload's model seed.
pub fn harness(scale: Scale, seed: u64) -> HarnessConfig {
    HarnessConfig {
        scale,
        model_seed: derive(seed, stream::MODEL),
        threads: TRAIN_THREADS,
        ..HarnessConfig::default()
    }
}

/// The SceneRec configuration the harness builds for Table 2.
pub fn scenerec_config(hc: &HarnessConfig) -> SceneRecConfig {
    SceneRecConfig::default()
        .with_dim(hc.dim)
        .with_variant(Variant::Full)
        .with_seed(hc.model_seed)
}

/// Training settings of epoch `epoch`: one epoch per call, validation
/// every epoch, early stopping off, a per-epoch sampling seed.
pub fn epoch_config(hc: &HarnessConfig, epoch: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        eval_every: 1,
        patience: 0,
        seed: derive(hc.model_seed, epoch as u64),
        ..hc.train_config()
    }
}

/// Set-up repeated `reps` times: dataset generation plus model
/// construction. Returns the last dataset and model and the per-rep
/// (set-up, generate, init) times.
pub struct SetUp {
    /// The generated dataset.
    pub data: Dataset,
    /// The freshly initialized model.
    pub model: SceneRec,
    /// Per-rep set-up seconds.
    pub setup_s: Vec<f64>,
    /// Per-rep generation seconds.
    pub generate_s: Vec<f64>,
    /// Per-rep `SceneRec::new` seconds.
    pub init_s: Vec<f64>,
    /// Whether every rep generated the same dataset.
    pub deterministic: bool,
}

/// Runs the set-up `reps` times (at least once), each rep traced as its
/// own `setup` trace.
///
/// # Errors
/// When the generator rejects the configuration.
pub fn set_up(
    gen_cfg: &GeneratorConfig,
    model_cfg: &SceneRecConfig,
    reps: usize,
    rec: &mut Recorder,
) -> Result<SetUp, String> {
    let mut last: Option<(Dataset, SceneRec)> = None;
    let (mut setup_s, mut generate_s, mut init_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut deterministic = true;
    let mut prev_train = None;
    for _ in 0..reps.max(1) {
        // Release the previous rep first: peak memory holds one set-up.
        if let Some((prev, _)) = last.take() {
            prev_train = Some(prev.split.train);
        }
        let root = rec.begin("setup");
        let (data, gen) = timed(|| rec.span("data.generate", || generate(gen_cfg)));
        let data = data?;
        let (model, init) = timed(|| {
            rec.span("core.model_init", || {
                SceneRec::new(model_cfg.clone(), &data)
            })
        });
        rec.end(root);
        setup_s.push(gen + init);
        generate_s.push(gen);
        init_s.push(init);
        if let Some(prev) = &prev_train {
            deterministic &= *prev == data.split.train;
        }
        last = Some((data, model));
    }
    rec.finish();
    let (data, model) = last.ok_or("set-up ran zero times")?;
    Ok(SetUp {
        data,
        model,
        setup_s,
        generate_s,
        init_s,
        deterministic,
    })
}

/// Freezes `model` and builds a `FrozenEngine` over it, spanned as
/// `core.freeze` and `serve.engine_build`.
///
/// # Errors
/// When the model cannot freeze or the engine rejects the snapshot.
pub fn freeze_engine(
    model: &SceneRec,
    seen: &[Vec<u32>],
    rec: &mut Recorder,
) -> Result<FrozenEngine, String> {
    let frozen = rec
        .span("core.freeze", || model.freeze())
        .ok_or("SceneRec refused to freeze")?;
    rec.span("serve.engine_build", || {
        FrozenEngine::new(frozen, seen, EngineConfig::default())
    })
    .map_err(|e| e.to_string())
}

/// A frozen snapshot of `model`, for the traced run's probes and
/// computed tensor metrics (untimed; untraced runs never hold one).
///
/// # Errors
/// When the model cannot freeze.
pub fn snapshot(model: &SceneRec) -> Result<FrozenModel, String> {
    model
        .freeze()
        .ok_or_else(|| "SceneRec refused to freeze".to_string())
}

/// All known positives per user: the trainer's negative-rejection set.
pub fn known_positives(data: &Dataset) -> Vec<HashSet<u32>> {
    let mut known = vec![HashSet::new(); data.num_users() as usize];
    for (u, i, _) in data.interactions.iter_interactions() {
        known[u.index()].insert(i.raw());
    }
    known
}

/// Tape sizes seen by the mirrored BPR loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapeStats {
    /// Summed `Graph::len` after the loss node.
    pub nodes: u64,
    /// Examples measured.
    pub examples: u64,
}

/// One epoch of BPR with batch size 1, written against the public API
/// so each call can be spanned: the same sampling, tape, backward,
/// merge, clip and optimizer step `trainer::train_with_optimizer` runs
/// for `batch_size = 1`, in the same order. `limit` stops after that
/// many examples (a short training probe). Returns the mean loss.
#[allow(clippy::too_many_arguments)]
pub fn mirror_epoch(
    model: &mut SceneRec,
    data: &Dataset,
    tc: &TrainConfig,
    opt: &mut dyn Optimizer,
    known: &[HashSet<u32>],
    limit: Option<usize>,
    rec: &mut Recorder,
    tape: &mut TapeStats,
) -> f32 {
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let mut pairs: Vec<(u32, u32)> = data
        .split
        .train
        .iter()
        .map(|&(u, i)| (u.raw(), i.raw()))
        .collect();
    let root = rec.begin("train.shuffle");
    rec.span("bench.sample", || pairs.shuffle(&mut rng));
    rec.end(root);
    let num_items = data.num_items();
    let n = limit.unwrap_or(pairs.len()).min(pairs.len());
    let mut grads = GradStore::new(model.store());
    let mut losses = RunningStats::new();
    for &(u, pos) in &pairs[..n] {
        let root = rec.begin("train.example");
        rec.span("autodiff.grad_clear", || grads.clear());
        let neg = rec.span("bench.sample", || loop {
            let cand = rng.gen_range(0..num_items);
            if !known[u as usize].contains(&cand) {
                break cand;
            }
        });
        let (loss_val, example) = {
            let m: &SceneRec = model;
            let mut g = Graph::new(m.store());
            let p = rec.span("core.train_score", || {
                m.build_score(&mut g, UserId(u), ItemId(pos))
            });
            let q = rec.span("core.train_score", || {
                m.build_score(&mut g, UserId(u), ItemId(neg))
            });
            let (loss, val) = rec.span("autodiff.loss", || {
                let l = g.bpr_loss(p, q);
                (l, g.scalar(l))
            });
            tape.nodes += g.len() as u64;
            tape.examples += 1;
            let example = rec.span("autodiff.backward", || {
                let mut ex = GradStore::new(m.store());
                g.backward(loss, &mut ex);
                ex
            });
            (val, example)
        };
        losses.push(loss_val);
        rec.span("autodiff.grad_merge", || grads.merge(&example));
        if tc.clip_norm > 0.0 {
            rec.span("autodiff.clip", || {
                clip_global_norm(&mut grads, tc.clip_norm)
            });
        }
        rec.span("autodiff.optim_step", || {
            opt.step(model.store_mut(), &grads)
        });
        rec.end(root);
    }
    rec.finish();
    losses.mean()
}

/// Floating-point operations the frozen head spends per scored item,
/// computed from its layer shapes (two per multiply-add).
pub fn head_flops_per_item(frozen: &FrozenModel) -> f64 {
    match &frozen.head {
        FrozenHead::Mlp { layers } => layers
            .iter()
            .map(|l| 2.0 * l.w.rows() as f64 * l.w.cols() as f64)
            .sum(),
        FrozenHead::DotBias { .. } => 2.0 * frozen.items.cols() as f64,
    }
}

/// Item-matrix bytes one cold request streams: every candidate row at
/// f32.
pub fn item_bytes_per_miss(frozen: &FrozenModel, candidates: f64) -> f64 {
    candidates * frozen.items.cols() as f64 * 4.0
}

/// The end-to-end metrics every workload reports, in contract order.
pub struct EndToEnd {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Units of work (BPR triples or ok responses) per wall second.
    pub throughput_per_s: f64,
}

/// Appends the end-to-end metrics, with peak memory read last.
///
/// # Errors
/// When peak memory cannot be read.
pub fn report_end_to_end(out: &mut Outcome, e: &EndToEnd) -> Result<(), String> {
    out.metric("setup_s", "s", e.setup_s);
    out.metric("peak_rss_mb", "MB", measure::peak_rss_mb()?);
    out.metric("throughput_per_s", "1/s", e.throughput_per_s);
    Ok(())
}

/// Per-layer measurements gathered by a traced run and its probes.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Profile of the traced main run (self-time shares).
    pub main: Profile,
    /// Profile of the main run plus the layer probes (per-call times).
    pub all: Profile,
    /// Mean tape nodes per BPR example.
    pub tape_nodes: f64,
    /// Median generation seconds of the set-up reps.
    pub generate_s: f64,
    /// Median `SceneRec::new` seconds of the set-up reps.
    pub init_s: f64,
    /// Scored candidates per cold miss (mean over the miss probe).
    pub candidates_per_miss: f64,
    /// Head FLOPs per scored item.
    pub head_flops_per_item: f64,
    /// Item bytes streamed per cold miss.
    pub item_bytes_per_miss: f64,
    /// Serving counters of the main run.
    pub serve: ServeCounters,
    /// Requests per `admission_plan` probe call.
    pub admission_requests: f64,
    /// Counter increments per `obs.counter_inc` probe span.
    pub counter_incs: f64,
    /// Untraced main-run seconds per unit of work.
    pub untraced_s: f64,
    /// Traced main-run seconds per unit of work.
    pub traced_s: f64,
}

/// Serving counters a main run measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    /// Cache hits as the engines count them.
    pub hits: f64,
    /// Cache misses as the engines count them.
    pub misses: f64,
    /// Summed replay wall seconds.
    pub replay_s: f64,
    /// Replay workers.
    pub workers: f64,
    /// Direct-call seconds the same requests would cost one worker.
    pub useful_s: f64,
    /// Shed share of offered requests (admission plans).
    pub shed_ratio: f64,
    /// p99 planned queue delay in ticks.
    pub queue_delay_p99_ticks: f64,
    /// Shard cache probes per admitted request.
    pub probes_per_request: f64,
}

fn per_call(p: &Profile, name: &str, scale: f64) -> f64 {
    p.self_ns_per_call(name).unwrap_or(f64::NAN) / scale
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Span-name prefixes of the program layers the self-time table splits
/// into; everything else is the benchmark's own time.
pub const PROGRAM_LAYERS: [&str; 5] = ["data", "core", "autodiff", "eval", "serve"];

/// Appends every per-layer metric, in `BENCHMARK.json` order.
pub fn report_layers(out: &mut Outcome, l: &Layers) {
    let p = &l.all;
    out.metric("data.generate_s", "s", l.generate_s);
    out.metric("core.model_init_s", "s", l.init_s);
    let user = per_call(p, "core.user_repr", 1e3);
    let item_user = per_call(p, "core.item_user_repr", 1e3);
    let item = per_call(p, "core.item_repr", 1e3);
    let score = per_call(p, "core.score", 1e3);
    out.metric("core.user_repr_us", "us", user);
    out.metric("core.item_user_repr_us", "us", item_user);
    out.metric("core.item_repr_us", "us", item);
    out.metric("core.scene_branch_us", "us", item - item_user);
    out.metric("core.score_us", "us", score);
    out.metric("core.rating_head_us", "us", score - user - item);
    out.metric("autodiff.tape_nodes", "count", l.tape_nodes);
    out.metric(
        "autodiff.backward_us",
        "us",
        per_call(p, "autodiff.backward", 1e3),
    );
    out.metric(
        "autodiff.grad_merge_us",
        "us",
        per_call(p, "autodiff.grad_merge", 1e3),
    );
    out.metric("autodiff.clip_us", "us", per_call(p, "autodiff.clip", 1e3));
    out.metric(
        "autodiff.optim_step_us",
        "us",
        per_call(p, "autodiff.optim_step", 1e3),
    );
    out.metric("eval.validate_s", "s", per_call(p, "eval.validate", 1e9));
    out.metric("core.freeze_ms", "ms", per_call(p, "core.freeze", 1e6));
    out.metric(
        "serve.engine_build_ms",
        "ms",
        per_call(p, "serve.engine_build", 1e6),
    );
    let miss = per_call(p, "serve.top_k_miss", 1e6);
    let score_items = per_call(p, "serve.score_items", 1e6);
    let select = per_call(p, "serve.select_top_k", 1e3);
    out.metric("serve.top_k_miss_ms", "ms", miss);
    out.metric("serve.score_items_ms", "ms", score_items);
    out.metric("serve.select_top_k_us", "us", select);
    out.metric(
        "serve.miss_residual_us",
        "us",
        (miss - score_items) * 1e3 - select,
    );
    out.metric("serve.score_share_of_miss_pct", "%", pct(score_items, miss));
    let score_s = score_items / 1e3;
    out.metric(
        "tensor.head_gflops",
        "GFLOP/s",
        l.head_flops_per_item * l.candidates_per_miss / score_s / 1e9,
    );
    out.metric(
        "tensor.item_bytes_per_miss_mb",
        "MB",
        l.item_bytes_per_miss / 1e6,
    );
    let s = &l.serve;
    let capacity_s = s.replay_s * s.workers;
    out.metric("serve.replay_busy_pct", "%", pct(s.useful_s, capacity_s));
    out.metric(
        "serve.replay_overhead_pct",
        "%",
        pct(capacity_s - s.useful_s, s.useful_s),
    );
    out.metric(
        "serve.cache_hit_ratio",
        "ratio",
        s.hits / (s.hits + s.misses).max(1.0),
    );
    out.metric(
        "serve.shard_probes_per_request",
        "count",
        s.probes_per_request,
    );
    out.metric(
        "serve.partial_hit_us",
        "us",
        per_call(p, "serve.partial_hit", 1e3),
    );
    out.metric(
        "serve.merge_top_k_us",
        "us",
        per_call(p, "serve.merge_top_k", 1e3),
    );
    out.metric(
        "serve.top_k_hit_us",
        "us",
        per_call(p, "serve.top_k_hit", 1e3),
    );
    out.metric(
        "serve.mark_seen_us",
        "us",
        per_call(p, "serve.mark_seen", 1e3),
    );
    out.metric(
        "serve.refill_miss_ms",
        "ms",
        per_call(p, "serve.refill_miss", 1e6),
    );
    out.metric(
        "serve.admission_plan_us_per_1k",
        "us",
        per_call(p, "serve.admission_plan", 1e3) * 1e3 / l.admission_requests,
    );
    out.metric("serve.shed_ratio", "ratio", s.shed_ratio);
    out.metric(
        "serve.queue_delay_p99_ticks",
        "ticks",
        s.queue_delay_p99_ticks,
    );
    out.metric(
        "obs.counter_inc_ns",
        "ns",
        per_call(p, "obs.counter_inc", l.counter_incs),
    );
    out.metric(
        "obs.trace_overhead_pct",
        "%",
        pct(l.traced_s - l.untraced_s, l.untraced_s),
    );
    // Self time outside every program layer (sampling, request and
    // trace generation, loop glue) is the benchmark's own.
    let total = l.main.total_self_ns() as f64;
    let mut program = 0.0;
    for layer in PROGRAM_LAYERS {
        let own = l.main.self_ns_with_prefix(&format!("{layer}.")) as f64;
        program += own;
        out.metric(&format!("self_pct.{layer}"), "%", pct(own, total));
    }
    out.metric("self_pct.bench", "%", pct(total - program, total));
}

/// Writes the traced run's Chrome trace JSON (to `--trace-out`, or
/// under the benchmark's own `out/` directory) and labels its path.
///
/// # Errors
/// When the file cannot be written.
pub fn write_trace(cfg: &RunConfig, rec: &Recorder, out: &mut Outcome) -> Result<(), String> {
    let path = cfg.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
            "{}-seed{}.trace.json",
            cfg.workload.name(),
            cfg.seed
        ))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, rec.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    out.label("trace_file", path.display());
    Ok(())
}

/// `q1/q2/q3` of a sample list, for labels.
pub fn quartiles(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        v.get(((v.len() as f64 - 1.0) * q).round() as usize)
            .copied()
            .unwrap_or(f64::NAN)
    };
    format!("{:.1}/{:.1}/{:.1}", at(0.25), at(0.5), at(0.75))
}
