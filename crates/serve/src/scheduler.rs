//! Micro-batching request scheduler with worker supervision.
//!
//! A replayed request log is split into contiguous micro-batches on a
//! shared queue; a supervised pool of scoped workers drains it. Responses
//! are reassembled **by request index**, so the output order — and,
//! because the engine is pure and its cache hit/miss behavior cannot
//! change response values, the output bytes — are identical at any worker
//! count. Which worker serves which batch is the *only* nondeterminism,
//! and it is unobservable in the results (pinned by
//! `tests/determinism.rs`).
//!
//! Each micro-batch is served in three steps (see `serve_batch`): the
//! fault ladder of every request in request order, then one
//! [`FrozenEngine`] call that scores all of the batch's cache misses in
//! one walk over the catalog, then the commit in request order. The
//! injector calls, cache lookups and stale-map updates happen in the
//! order serving the requests one at a time would make them, so the
//! batch size changes neither bytes nor counters.
//!
//! ## Failure handling (`replay_supervised`)
//!
//! The supervised entry point threads a `scenerec_faults::Injector`
//! through three recovery paths, all driven by **logical ticks** — no
//! wall clocks, so every outcome is reproducible from the fault plan:
//!
//! * **Worker panics** (`serve/worker`): a worker records its claimed
//!   batch in an in-flight registry before touching it and commits the
//!   batch's responses atomically after finishing it. When a worker dies
//!   the supervisor requeues the registered batch (bounded by
//!   [`ReplayConfig::max_retries`], then error responses) and respawns a
//!   replacement — every request is answered exactly once, never lost,
//!   never duplicated.
//! * **Engine unavailability** (`serve/engine`): a failed attempt retries
//!   with deterministic exponential backoff
//!   ([`scenerec_faults::Backoff`]); exhausted retries fall back to the
//!   scheduler's stale-result cache when [`ReplayConfig::degraded`] is
//!   set (stale equals fresh bit-for-bit — the engine is pure), else an
//!   error response.
//! * **Deadlines** (`serve/request` latency): injected latency beyond
//!   [`ReplayConfig::deadline_ticks`] becomes a typed deadline-exceeded
//!   error response instead of an unbounded wait.
//!
//! Serving telemetry goes through `scenerec-obs`: queue-depth and
//! batch-size histograms, per-request latency, and the recovery counters
//! `serve/retries`, `serve/degraded_hits`, `serve/deadline_misses`, and
//! `serve/worker_respawns`.
//!
//! ## Causal tracing (`replay_traced`)
//!
//! The traced entry points additionally record one span tree per
//! request (`serve.request` → `serve.queue` / `serve.batch` →
//! `serve.cache` / `serve.score`) with logical-tick timestamps, so span
//! *structure* is as deterministic as the response bytes; see
//! [`replay_traced`]. Workers also log every batch claim into the
//! `scenerec_obs::flight` ring recorder, and the supervisor attaches a
//! full flight dump to the `Warn` event it emits when it reaps a
//! panicked worker — the post-mortem shows what every thread was doing
//! just before the crash.

use crate::admission::{self, AdmissionConfig, AdmissionPlan, Lane, OverloadInfo, TimedRequest};
use crate::engine::FrozenEngine;
use scenerec_core::Recommendation;
use scenerec_faults::{Backoff, Injector};
use scenerec_obs::{
    flight, lock_unpoisoned, metrics, obs_event, FieldValue, Level, Stopwatch, Trace, TraceData,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// One inference request: top-`k` unseen items for `user`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The requesting user id.
    pub user: u32,
    /// How many recommendations to return.
    pub k: usize,
}

/// One served response, in the same position as its request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The requesting user id.
    pub user: u32,
    /// The requested k.
    pub k: usize,
    /// Ranked recommendations (empty when `error` is set).
    pub recs: Vec<Recommendation>,
    /// Human-readable failure, e.g. an out-of-range user id.
    pub error: Option<String>,
    /// Whether `recs` came from the degraded-mode stale cache because
    /// the engine was unavailable (stale results are bit-identical to
    /// fresh ones — the engine is pure — but the flag is surfaced so
    /// clients can tell).
    pub degraded: bool,
    /// Shards whose partial results are **missing** from `recs`
    /// (sharded serving only; always empty on the single-engine path).
    /// A shard outage never silently truncates a top-K: the response is
    /// flagged `degraded` and names exactly which item ranges went
    /// unscored, in ascending shard order.
    pub partial_shards: Vec<u32>,
    /// Set when the admission gate shed this request instead of
    /// queueing it (bounded scheduler only): the lane that was full,
    /// the queue depth observed, and a deterministic retry-after hint
    /// in logical ticks. An overloaded response is typed — never a
    /// silent drop, never conflated with an engine error.
    pub overload: Option<OverloadInfo>,
}

impl Response {
    /// Renders the response as one compact JSON object.
    ///
    /// Scores use Rust's shortest-round-trip `f32` formatting, so equal
    /// bit patterns always render to equal bytes — the determinism tests
    /// compare this rendering across worker counts.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(32 + self.recs.len() * 24);
        s.push_str("{\"user\":");
        s.push_str(&self.user.to_string());
        s.push_str(",\"k\":");
        s.push_str(&self.k.to_string());
        s.push_str(",\"recs\":[");
        for (i, r) in self.recs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"item\":");
            s.push_str(&r.item.raw().to_string());
            s.push_str(",\"score\":");
            s.push_str(&r.score.to_string());
            s.push('}');
        }
        s.push(']');
        if let Some(e) = &self.error {
            s.push_str(",\"error\":");
            s.push_str(&format!("{e:?}"));
        }
        if self.degraded {
            s.push_str(",\"degraded\":true");
        }
        if !self.partial_shards.is_empty() {
            s.push_str(",\"partial_shards\":[");
            for (i, shard) in self.partial_shards.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&shard.to_string());
            }
            s.push(']');
        }
        if let Some(o) = &self.overload {
            s.push_str(",\"overloaded\":{\"lane\":\"");
            s.push_str(o.lane.name());
            s.push_str("\",\"queue_depth\":");
            s.push_str(&o.queue_depth.to_string());
            s.push_str(",\"retry_after_ticks\":");
            s.push_str(&o.retry_after_ticks.to_string());
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Coarse outcome classification, for accounting and tests:
    /// `"overloaded"` (shed at admission), `"error"`, `"degraded"`
    /// (stale fallback), or `"ok"`.
    pub fn outcome(&self) -> &'static str {
        if self.overload.is_some() {
            "overloaded"
        } else if self.error.is_some() {
            "error"
        } else if self.degraded {
            "degraded"
        } else {
            "ok"
        }
    }
}

/// Renders a response stream as newline-delimited JSON.
pub fn responses_to_json(responses: &[Response]) -> String {
    let mut s = String::new();
    for r in responses {
        s.push_str(&r.to_json());
        s.push('\n');
    }
    s
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Worker threads draining the queue (>= 1).
    pub workers: usize,
    /// Max requests per micro-batch (>= 1).
    pub max_batch: usize,
    /// Per-request deadline in logical ticks; injected latency beyond it
    /// becomes a deadline-exceeded error response (0 = no deadline).
    pub deadline_ticks: u64,
    /// Bounded retries: per request when the engine is unavailable, and
    /// per batch when its worker panics.
    pub max_retries: u32,
    /// Deterministic exponential backoff between engine retries, in
    /// logical ticks (counted against the request's deadline).
    pub backoff: Backoff,
    /// When retries are exhausted, serve the last good result for the
    /// same (user, k) from the stale cache instead of an error.
    pub degraded: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            workers: 1,
            max_batch: 32,
            deadline_ticks: 0,
            max_retries: 2,
            backoff: Backoff::default(),
            degraded: true,
        }
    }
}

/// Bucket edges for queue-depth / batch-size histograms.
const COUNT_EDGES: [f64; 15] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0,
];

/// Bucket edges for per-request latency in nanoseconds: log-spaced at
/// 6 buckets per decade over 1 µs .. 10 s. Serving latency is
/// heavy-tailed; log spacing keeps the relative quantile error roughly
/// constant all the way into the p999 tail, where the old 1–3–10
/// edges collapsed whole decades into two buckets.
pub fn latency_edges() -> Vec<f64> {
    metrics::log_edges(1e3, 1e10, 6)
}

/// Admission-controlled scheduler knobs: the plain [`ReplayConfig`]
/// plus the bounded-queue policy the admission plan is computed from.
#[derive(Debug, Clone, Default)]
pub struct BoundedReplayConfig {
    /// Worker-pool knobs (workers, batching, retries, degraded mode).
    pub replay: ReplayConfig,
    /// Queue bounds, lane weights, and the modeled service rate.
    pub admission: AdmissionConfig,
}

/// A claimed micro-batch: positions `start..end` in its lane's dequeue
/// order (see [`Shared::order`]), plus how many times a panicking
/// worker has already handed it back.
#[derive(Debug, Clone, Copy)]
struct Batch {
    lane: Lane,
    start: usize,
    end: usize,
    requeues: u32,
}

/// Residual weighted-round-robin shares for one worker's current
/// round. Workers drain the fast lane `fast_weight` times, then the
/// cold lane `cold_weight` times, an empty lane ceding its remainder —
/// the execution-side mirror of the admission simulator's discipline.
struct LaneShares {
    fast_left: u32,
    cold_left: u32,
}

/// Everything the worker pool shares. All critical sections only move
/// values between containers, so poisoned locks are safe to recover.
///
/// The two lane queues are **separate mutexes** deliberately: a worker
/// popping the fast (cache-hit) lane takes only `fast`, never `cold`,
/// so a slow cold-scoring drain can never block fast-lane claims
/// (pinned by `fast_lane_pop_never_touches_the_cold_mutex`).
struct Shared<'a> {
    engine: &'a FrozenEngine,
    requests: &'a [Request],
    config: &'a ReplayConfig,
    injector: &'a Injector,
    /// Lane-weight pair `(fast, cold)` for the drain discipline.
    weights: (u32, u32),
    /// Per-lane dequeue order: `order[lane][pos]` is the request index
    /// a batch position maps to. The unbounded path uses the identity
    /// order on the cold lane; the bounded path uses the admission
    /// plan's per-lane `seq` order.
    order: [Vec<usize>; 2],
    fast: Mutex<VecDeque<Batch>>,
    cold: Mutex<VecDeque<Batch>>,
    slots: Mutex<Vec<Option<Response>>>,
    /// Last good result per (user, k, precision-tag) — the
    /// degraded-mode fallback. Tagged like the engine's result cache so
    /// stale entries can never cross precisions.
    stale: Mutex<BTreeMap<(u32, u32, u8), Vec<Recommendation>>>,
    /// One trace per request (index-aligned with `slots`), present only
    /// on the traced entry points. A worker takes the trace alongside
    /// the request, appends its spans, and puts it back — single-owner
    /// hand-off, same life cycle as the response slot.
    traces: Option<Mutex<Vec<Option<Trace>>>>,
}

/// Replays a request log through the engine with a worker pool and
/// returns responses in request order.
///
/// Each worker repeatedly claims the next `max_batch` requests from a
/// shared queue and serves them; results carry their request index and
/// are reassembled after the pool joins. Failures (e.g. unknown users)
/// become `Response::error` instead of tearing down the batch.
pub fn replay(engine: &FrozenEngine, requests: &[Request], config: &ReplayConfig) -> Vec<Response> {
    replay_supervised(engine, requests, config, &Injector::disabled())
}

/// [`replay`] with fault injection and full supervision: worker panics
/// are recovered (batch requeued exactly once per panic, replacement
/// worker spawned), engine unavailability is retried with backoff and
/// degraded to stale results, and injected latency is bounded by the
/// per-request deadline. See the module docs for the recovery model.
///
/// The invariant `tests/chaos.rs` pins: **every request gets exactly one
/// response, in request order, at any worker count, under any fault
/// plan** — a fault can change a response's content (error, degraded) but
/// can never lose or duplicate one.
pub fn replay_supervised(
    engine: &FrozenEngine,
    requests: &[Request],
    config: &ReplayConfig,
    injector: &Injector,
) -> Vec<Response> {
    run_replay(engine, requests, config, injector, false).0
}

/// [`replay`] with causal tracing: returns one [`TraceData`] per
/// request (index-aligned with the responses, `trace_id` = request
/// index). Each trace roots at a `serve.request` span with
/// `serve.queue` and `serve.batch` children; the batch span nests
/// `serve.cache` (with a `hit` field) and, on misses, `serve.score`.
/// Span *structure* — ids, parentage, logical ticks — is a pure
/// function of the request log and cache state, so it is identical at
/// any worker count; only the wall-ns timestamps differ.
pub fn replay_traced(
    engine: &FrozenEngine,
    requests: &[Request],
    config: &ReplayConfig,
) -> (Vec<Response>, Vec<TraceData>) {
    replay_traced_supervised(engine, requests, config, &Injector::disabled())
}

/// [`replay_supervised`] with causal tracing — see [`replay_traced`].
pub fn replay_traced_supervised(
    engine: &FrozenEngine,
    requests: &[Request],
    config: &ReplayConfig,
    injector: &Injector,
) -> (Vec<Response>, Vec<TraceData>) {
    let (responses, traces) = run_replay(engine, requests, config, injector, true);
    (responses, traces.unwrap_or_default())
}

/// Chops `positions` (already in lane dequeue order) into micro-batches.
fn lane_batches(lane: Lane, count: usize, max_batch: usize) -> VecDeque<Batch> {
    let mut queue = VecDeque::new();
    let mut start = 0;
    while start < count {
        let end = (start + max_batch).min(count);
        queue.push_back(Batch {
            lane,
            start,
            end,
            requeues: 0,
        });
        start = end;
    }
    queue
}

fn run_replay(
    engine: &FrozenEngine,
    requests: &[Request],
    config: &ReplayConfig,
    injector: &Injector,
    traced: bool,
) -> (Vec<Response>, Option<Vec<TraceData>>) {
    let workers = config.workers.max(1);
    let max_batch = config.max_batch.max(1);
    // The unbounded path is a degenerate lane assignment: everything in
    // the cold lane, in request order, nothing shed.
    let cold = lane_batches(Lane::Cold, requests.len(), max_batch);
    let traces = traced.then(|| {
        // Every request's trace opens here, on the scheduler thread, in
        // request order: the root span and the queue span get their
        // ticks before any worker runs, so trace structure cannot
        // depend on worker interleaving.
        Mutex::new(
            requests
                .iter()
                .enumerate()
                .map(|(idx, req)| {
                    let mut t = Trace::new(idx as u64);
                    let root = t.start_span("serve.request");
                    t.add_field(root, "user", FieldValue::Int(req.user as i64));
                    t.add_field(root, "k", FieldValue::Int(req.k as i64));
                    t.start_span("serve.queue");
                    Some(t)
                })
                .collect::<Vec<Option<Trace>>>(),
        )
    });
    let shared = Shared {
        engine,
        requests,
        config,
        injector,
        weights: (1, 1),
        order: [Vec::new(), (0..requests.len()).collect()],
        fast: Mutex::new(VecDeque::new()),
        cold: Mutex::new(cold),
        slots: Mutex::new(requests.iter().map(|_| None).collect()),
        stale: Mutex::new(BTreeMap::new()),
        traces,
    };
    supervise(&shared, workers);
    finish_run(&shared, requests.len())
}

/// Drains the response slots (and traces, when present) after the
/// worker pool has joined.
fn finish_run(shared: &Shared<'_>, expected: usize) -> (Vec<Response>, Option<Vec<TraceData>>) {
    let out: Vec<Response> = lock_unpoisoned(&shared.slots).drain(..).flatten().collect();
    debug_assert_eq!(out.len(), expected, "scheduler dropped a request");
    let traces = shared.traces.as_ref().map(|m| {
        // Drain under the lock, finish outside it: `Trace::finish`
        // touches the obs span registry, and holding one lock across a
        // call that takes another is an L2 violation.
        let drained: Vec<Option<Trace>> = lock_unpoisoned(m).drain(..).collect();
        drained
            .into_iter()
            .enumerate()
            .map(|(idx, t)| t.unwrap_or_else(|| Trace::new(idx as u64)).finish())
            .collect()
    });
    (out, traces)
}

/// Replays an **open-loop timed arrival log** through the engine with
/// bounded lane queues and deterministic admission control, returning
/// responses in arrival order plus the [`AdmissionPlan`] that produced
/// them.
///
/// The admission decision for every arrival — admit into the fast
/// (predicted cache hit) or cold lane, or shed with a typed
/// [`OverloadInfo`] — is computed up front by [`admission::plan`] as a
/// pure function of (arrival order, queue capacities, lane
/// classification). Workers then serve exactly the admitted requests
/// in the planned per-lane order, so:
///
/// * **(admitted + shed) == offered** — every arrival gets exactly one
///   response; a shed request is answered, not dropped.
/// * **Worker count never changes bytes** — shedding happened before
///   any worker existed.
/// * Shed responses carry `overload: Some(..)` with the queue depth
///   and a deterministic retry-after estimate in logical ticks.
pub fn replay_bounded(
    engine: &FrozenEngine,
    arrivals: &[TimedRequest],
    config: &BoundedReplayConfig,
) -> (Vec<Response>, AdmissionPlan) {
    replay_bounded_supervised(engine, arrivals, config, &Injector::disabled())
}

/// [`replay_bounded`] with fault injection and full supervision — the
/// same recovery ladder as [`replay_supervised`]. A panicked worker's
/// batch is requeued at the **front of its own lane**, so the
/// exactly-once guarantee composes with admission control: requeues
/// re-enter a queue that admission has already bounded, never a fresh
/// admission decision (an admitted request can not be displaced into
/// shedding by a fault, and a shed request is never retroactively
/// admitted).
pub fn replay_bounded_supervised(
    engine: &FrozenEngine,
    arrivals: &[TimedRequest],
    config: &BoundedReplayConfig,
    injector: &Injector,
) -> (Vec<Response>, AdmissionPlan) {
    let (responses, _, plan) = run_bounded(engine, arrivals, config, injector, false);
    (responses, plan)
}

/// [`replay_bounded`] with causal tracing. Every arrival's trace roots
/// at `serve.request` (with a `lane` field); admitted requests record
/// a `serve.admit` span (queue depth at admission) followed by the
/// usual `serve.queue` / `serve.batch` children, while shed requests
/// record a single `serve.shed` span carrying the queue depth and
/// retry-after hint. All admission spans are opened on the scheduler
/// thread in arrival order, so that slice of the span structure is
/// identical at any worker count; the engine-side spans below the
/// queue are not worker-count invariant for repeated keys, because
/// with a shared result cache, which replay of a key misses (and so
/// records a `serve.score` span) is an execution-order fact.
pub fn replay_bounded_traced(
    engine: &FrozenEngine,
    arrivals: &[TimedRequest],
    config: &BoundedReplayConfig,
) -> (Vec<Response>, Vec<TraceData>, AdmissionPlan) {
    replay_bounded_traced_supervised(engine, arrivals, config, &Injector::disabled())
}

/// [`replay_bounded_supervised`] with causal tracing — see
/// [`replay_bounded_traced`].
pub fn replay_bounded_traced_supervised(
    engine: &FrozenEngine,
    arrivals: &[TimedRequest],
    config: &BoundedReplayConfig,
    injector: &Injector,
) -> (Vec<Response>, Vec<TraceData>, AdmissionPlan) {
    let (responses, traces, plan) = run_bounded(engine, arrivals, config, injector, true);
    (responses, traces.unwrap_or_default(), plan)
}

/// Records a plan's admit/shed accounting into the obs registry:
/// `serve/admitted`, `serve/shed`, their per-lane variants
/// (`serve/admitted_fast`, ...), and the `serve/queue_delay_ticks`
/// histogram. Shared by the single-engine and sharded bounded paths.
pub(crate) fn record_admission_metrics(plan: &AdmissionPlan) {
    metrics::counter("serve/admitted").add(plan.admitted() as u64);
    metrics::counter("serve/shed").add(plan.shed() as u64);
    for lane in [Lane::Fast, Lane::Cold] {
        metrics::counter(&format!("serve/admitted_{}", lane.name()))
            .add(plan.admitted_by_lane[lane.index()] as u64);
        metrics::counter(&format!("serve/shed_{}", lane.name()))
            .add(plan.shed_by_lane[lane.index()] as u64);
    }
    let delay_hist = metrics::histogram("serve/queue_delay_ticks", &COUNT_EDGES);
    for delay in plan.queue_delays() {
        delay_hist.observe(delay as f64);
    }
}

fn run_bounded(
    engine: &FrozenEngine,
    arrivals: &[TimedRequest],
    config: &BoundedReplayConfig,
    injector: &Injector,
    traced: bool,
) -> (Vec<Response>, Option<Vec<TraceData>>, AdmissionPlan) {
    let plan = admission::plan(arrivals, &config.admission);
    let workers = config.replay.workers.max(1);
    let max_batch = config.replay.max_batch.max(1);
    let requests: Vec<Request> = arrivals.iter().map(|a| a.request).collect();
    record_admission_metrics(&plan);

    // Pre-fill shed slots with typed overload responses; workers only
    // ever see admitted work.
    let mut slots: Vec<Option<Response>> = requests.iter().map(|_| None).collect();
    for (idx, verdict) in plan.verdicts.iter().enumerate() {
        if let admission::Verdict::Shed(info) = verdict {
            slots[idx] = Some(Response {
                user: requests[idx].user,
                k: requests[idx].k,
                recs: Vec::new(),
                error: None,
                degraded: false,
                partial_shards: Vec::new(),
                overload: Some(*info),
            });
        }
    }

    let order = [plan.lane_order(Lane::Fast), plan.lane_order(Lane::Cold)];
    let fast = lane_batches(Lane::Fast, order[Lane::Fast.index()].len(), max_batch);
    let cold = lane_batches(Lane::Cold, order[Lane::Cold.index()].len(), max_batch);

    let traces = traced.then(|| {
        // Admission spans open on the scheduler thread in arrival
        // order — before any worker exists — so their ticks cannot
        // depend on worker interleaving.
        Mutex::new(
            arrivals
                .iter()
                .enumerate()
                .map(|(idx, arrival)| {
                    let mut t = Trace::new(idx as u64);
                    let root = t.start_span("serve.request");
                    t.add_field(root, "user", FieldValue::Int(arrival.request.user as i64));
                    t.add_field(root, "k", FieldValue::Int(arrival.request.k as i64));
                    match &plan.verdicts[idx] {
                        admission::Verdict::Admit { lane, seq, .. } => {
                            t.add_field(root, "lane", FieldValue::Str(lane.name().to_string()));
                            let admit = t.start_span("serve.admit");
                            t.add_field(admit, "seq", FieldValue::Int(*seq as i64));
                            t.end_span(admit);
                            t.start_span("serve.queue");
                        }
                        admission::Verdict::Shed(info) => {
                            t.add_field(
                                root,
                                "lane",
                                FieldValue::Str(info.lane.name().to_string()),
                            );
                            let shed = t.start_span("serve.shed");
                            t.add_field(
                                shed,
                                "queue_depth",
                                FieldValue::Int(info.queue_depth as i64),
                            );
                            t.add_field(
                                shed,
                                "retry_after_ticks",
                                FieldValue::Int(info.retry_after_ticks as i64),
                            );
                            t.end_span(shed);
                        }
                    }
                    Some(t)
                })
                .collect::<Vec<Option<Trace>>>(),
        )
    });

    let shared = Shared {
        engine,
        requests: &requests,
        config: &config.replay,
        injector,
        weights: (
            config.admission.fast_weight.max(1),
            config.admission.cold_weight.max(1),
        ),
        order,
        fast: Mutex::new(fast),
        cold: Mutex::new(cold),
        slots: Mutex::new(slots),
        stale: Mutex::new(BTreeMap::new()),
        traces,
    };
    supervise(&shared, workers);
    let (responses, traces) = finish_run(&shared, requests.len());
    (responses, traces, plan)
}

/// Runs `workers` scoped drain loops, replacing any that panic until the
/// queue is empty. A panicked worker's in-flight batch (recorded in its
/// registry slot before the panic point) is requeued — or, past its
/// requeue budget, answered with error responses so it is never lost.
fn supervise(shared: &Shared<'_>, workers: usize) {
    // Per-worker-slot in-flight registry; a respawned worker reuses its
    // predecessor's slot (the supervisor has already emptied it).
    let registry: Vec<Mutex<Option<Batch>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    let registry = &registry;
    std::thread::scope(|scope| {
        let mut live: Vec<(usize, std::thread::ScopedJoinHandle<'_, ()>)> = (0..workers)
            .map(|slot| (slot, scope.spawn(move || drain(shared, &registry[slot]))))
            .collect();
        while let Some((slot, handle)) = live.pop() {
            if handle.join().is_ok() {
                continue;
            }
            // The worker panicked. Recover its in-flight batch first so
            // the replacement finds it back on the queue.
            metrics::counter("serve/worker_respawns").inc();
            let orphan = lock_unpoisoned(&registry[slot]).take();
            obs_event!(
                Level::Warn, "serve", "worker panicked; respawning";
                "slot" => slot as u64,
                "orphan_batch" => orphan.map(|b| format!("{}..{}", b.start, b.end)).unwrap_or_default(),
                "dump" => flight::dump_string(),
            );
            if let Some(batch) = orphan {
                if batch.requeues < shared.config.max_retries {
                    // Requeue at the front of the batch's own lane: the
                    // batch was admitted, so it re-enters a queue the
                    // admission gate already bounded — a fault can
                    // never displace admitted work into shedding.
                    lock_unpoisoned(shared.lane_queue(batch.lane)).push_front(Batch {
                        requeues: batch.requeues + 1,
                        ..batch
                    });
                } else {
                    // Requeue budget exhausted: answer with errors rather
                    // than losing the batch.
                    commit_errors(shared, batch);
                }
            }
            live.push((slot, scope.spawn(move || drain(shared, &registry[slot]))));
        }
    });
}

impl Shared<'_> {
    /// The queue for one lane. Callers lock at most one lane queue at
    /// a time — never both.
    fn lane_queue(&self, lane: Lane) -> &Mutex<VecDeque<Batch>> {
        match lane {
            Lane::Fast => &self.fast,
            Lane::Cold => &self.cold,
        }
    }

    /// Claims the next batch under the weighted round-robin discipline,
    /// or `None` when both lanes are drained. Each pop locks exactly
    /// one lane queue (a temporary guard, dropped before anything
    /// else): the fast lane is claimed without ever touching the cold
    /// lane's mutex, so cache-hit work cannot block behind cold
    /// scoring's queue contention.
    fn pop_weighted(&self, shares: &mut LaneShares) -> Option<Batch> {
        let mut fast_dry = false;
        let mut cold_dry = false;
        loop {
            if shares.fast_left == 0 && shares.cold_left == 0 {
                shares.fast_left = self.weights.0;
                shares.cold_left = self.weights.1;
            }
            if shares.fast_left > 0 {
                shares.fast_left -= 1;
                if let Some(b) = lock_unpoisoned(&self.fast).pop_front() {
                    return Some(b);
                }
                shares.fast_left = 0;
                fast_dry = true;
                if cold_dry {
                    return None;
                }
                continue;
            }
            shares.cold_left -= 1;
            if let Some(b) = lock_unpoisoned(&self.cold).pop_front() {
                return Some(b);
            }
            shares.cold_left = 0;
            cold_dry = true;
            if fast_dry {
                return None;
            }
        }
    }
}

/// One worker's drain loop: claim a batch (weighted across lanes),
/// register it in-flight, serve it, commit all its responses
/// atomically, clear the registration.
fn drain(shared: &Shared<'_>, inflight: &Mutex<Option<Batch>>) {
    let queue_hist = metrics::histogram("serve/queue_depth", &COUNT_EDGES);
    let batch_hist = metrics::histogram("serve/batch_size", &COUNT_EDGES);
    let latency_hist = metrics::histogram("serve/latency_ns", &latency_edges());
    let mut shares = LaneShares {
        fast_left: 0,
        cold_left: 0,
    };
    loop {
        // Depth is sampled lane by lane — two short temporary guards,
        // never held together, never held across the observe.
        let fast_depth: usize = lock_unpoisoned(&shared.fast)
            .iter()
            .map(|b| b.end - b.start)
            .sum();
        let cold_depth: usize = lock_unpoisoned(&shared.cold)
            .iter()
            .map(|b| b.end - b.start)
            .sum();
        if fast_depth + cold_depth > 0 {
            queue_hist.observe((fast_depth + cold_depth) as f64);
        }
        let Some(batch) = shared.pop_weighted(&mut shares) else {
            break;
        };
        *lock_unpoisoned(inflight) = Some(batch);
        flight::record(
            "serve.batch.claim",
            format!(
                "{} lane positions {}..{} requeues={}",
                batch.lane.name(),
                batch.start,
                batch.end,
                batch.requeues
            ),
        );
        // The injected worker crash: fires after the batch is registered
        // and before any of it is served — so the supervisor recovers the
        // whole batch, no half-served state leaks out, and (because the
        // traces are still untouched in their slots) span structure is
        // invariant under panic faults.
        shared.injector.panic_point("serve/worker");
        batch_hist.observe((batch.end - batch.start) as f64);

        let served = serve_batch(shared, batch, &latency_hist);
        // Atomic commit: a batch's responses land all at once, after the
        // last fallible step, so a crashed batch contributes nothing.
        {
            let mut slots = lock_unpoisoned(&shared.slots);
            for (idx, response) in served {
                debug_assert!(slots[idx].is_none(), "response {idx} served twice");
                slots[idx] = Some(response);
            }
        }
        *lock_unpoisoned(inflight) = None;
    }
}

/// Error responses for a batch whose requeue budget ran out.
fn commit_errors(shared: &Shared<'_>, batch: Batch) {
    let mut slots = lock_unpoisoned(&shared.slots);
    for pos in batch.start..batch.end {
        let idx = shared.order[batch.lane.index()][pos];
        let req = &shared.requests[idx];
        debug_assert!(slots[idx].is_none(), "response {idx} served twice");
        slots[idx] = Some(error_response(
            req,
            format!(
                "worker failed {} times serving this batch",
                batch.requeues + 1
            ),
        ));
    }
}

/// Serves one claimed batch in three steps and returns its responses
/// with their request indices, in batch order:
///
/// 1. **Plan**, in request order: open the request's `serve.batch` span
///    and run its fault ladder — the injected `serve/request` latency,
///    then `serve/engine` probes with bounded, backed-off retries —
///    making exactly the injector calls, in exactly the order, that
///    serving the requests one at a time makes.
/// 2. **Score**: every request whose probe succeeded goes to the engine
///    in one [`FrozenEngine::top_k_batch`] call, which scores all of the
///    batch's cache misses in one walk over the catalog.
/// 3. **Commit**, in request order: record good results in the stale
///    map and resolve exhausted retries from it (so a request can
///    degrade to a result an earlier batch-mate just produced), close
///    the `serve.batch` span and observe the request's latency — the
///    time from the batch's claim to its response, which is when the
///    client sees it (a batch commits atomically).
fn serve_batch(
    shared: &Shared<'_>,
    batch: Batch,
    latency_hist: &metrics::Histogram,
) -> Vec<(usize, Response)> {
    let watch = Stopwatch::start();
    let order = &shared.order[batch.lane.index()][batch.start..batch.end];
    let mut traces: Vec<Option<Trace>> = order
        .iter()
        .map(|&idx| {
            shared
                .traces
                .as_ref()
                .and_then(|m| lock_unpoisoned(m)[idx].take())
        })
        .collect();
    let mut plans = Vec::with_capacity(order.len());
    let mut spans = Vec::with_capacity(order.len());
    for (&idx, trace) in order.iter().zip(&mut traces) {
        spans.push(trace.as_mut().map(|t| {
            t.end_top(); // serve.queue: the wait is over
            let b = t.start_span("serve.batch");
            t.add_field(b, "batch_start", FieldValue::Int(batch.start as i64));
            t.add_field(b, "batch_end", FieldValue::Int(batch.end as i64));
            b
        }));
        plans.push(plan_request(shared, &shared.requests[idx]));
    }

    let mut scored = {
        let (reqs, mut engine_traces): (Vec<(u32, usize)>, Vec<Option<&mut Trace>>) = order
            .iter()
            .zip(&plans)
            .zip(&mut traces)
            .filter(|((_, plan), _)| matches!(plan, Plan::Engine))
            .map(|((&idx, _), trace)| {
                let req = &shared.requests[idx];
                ((req.user, req.k), trace.as_mut())
            })
            .unzip();
        shared
            .engine
            .top_k_batch(&reqs, &mut engine_traces)
            .into_iter()
    };

    let tag = shared.engine.precision().tag();
    let mut served = Vec::with_capacity(order.len());
    for (((&idx, plan), mut trace), span) in order.iter().zip(plans).zip(traces).zip(spans) {
        let req = &shared.requests[idx];
        let key = (req.user, u32::try_from(req.k).unwrap_or(u32::MAX), tag);
        let response = match plan {
            Plan::Engine => {
                let response = match scored.next() {
                    Some(Ok(recs)) => ok_response(req, recs),
                    Some(Err(e)) => error_response(req, e.to_string()),
                    None => error_response(req, "engine returned no result".to_owned()),
                };
                if response.error.is_none() {
                    lock_unpoisoned(&shared.stale).insert(key, response.recs.clone());
                }
                response
            }
            Plan::Done(response) => response,
            Plan::Exhausted(error) => {
                // Bind the lookup so the stale-map guard (a temporary) is
                // dropped before the metrics counter takes the obs
                // registry lock (L2).
                let stale_hit = shared
                    .config
                    .degraded
                    .then(|| lock_unpoisoned(&shared.stale).get(&key).cloned())
                    .flatten();
                match stale_hit {
                    Some(recs) => {
                        metrics::counter("serve/degraded_hits").inc();
                        Response {
                            degraded: true,
                            ..ok_response(req, recs)
                        }
                    }
                    None => error_response(req, error),
                }
            }
        };
        if let (Some(t), Some(b)) = (trace.as_mut(), span) {
            t.end_span(b);
        }
        if let (Some(m), Some(t)) = (shared.traces.as_ref(), trace) {
            lock_unpoisoned(m)[idx] = Some(t);
        }
        latency_hist.observe(watch.elapsed_ns() as f64);
        served.push((idx, response));
    }
    served
}

/// What the fault ladder decided for one request.
enum Plan {
    /// The `serve/engine` probe succeeded: score it.
    Engine,
    /// Answered without the engine (deadline exceeded).
    Done(Response),
    /// Engine retries exhausted: degrade to the stale result at commit
    /// when allowed and present, else this error.
    Exhausted(String),
}

/// Runs one request's retry / deadline ladder against the injector,
/// without touching the engine: injected latency plus backoff form the
/// request's logical clock, checked against the deadline before every
/// engine probe.
fn plan_request(shared: &Shared<'_>, req: &Request) -> Plan {
    let config = shared.config;
    let mut ticks = shared.injector.latency("serve/request");
    let mut attempt = 0u32;
    loop {
        if config.deadline_ticks > 0 && ticks > config.deadline_ticks {
            metrics::counter("serve/deadline_misses").inc();
            return Plan::Done(error_response(
                req,
                format!(
                    "deadline exceeded: {ticks} > {} ticks",
                    config.deadline_ticks
                ),
            ));
        }
        match shared.injector.io("serve/engine") {
            Ok(()) => return Plan::Engine,
            Err(_) if attempt < config.max_retries => {
                metrics::counter("serve/retries").inc();
                ticks = ticks.saturating_add(config.backoff.ticks(attempt));
                attempt += 1;
            }
            Err(e) => {
                return Plan::Exhausted(format!("engine unavailable after {attempt} retries: {e}"))
            }
        }
    }
}

fn ok_response(req: &Request, recs: Vec<Recommendation>) -> Response {
    Response {
        user: req.user,
        k: req.k,
        recs,
        error: None,
        degraded: false,
        partial_shards: Vec::new(),
        overload: None,
    }
}

fn error_response(req: &Request, error: String) -> Response {
    Response {
        error: Some(error),
        ..ok_response(req, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use scenerec_core::{FrozenHead, FrozenModel};
    use scenerec_tensor::Matrix;

    fn toy_engine() -> FrozenEngine {
        let mut users = Matrix::zeros(3, 2);
        users.set_row(0, &[1.0, 0.0]);
        users.set_row(1, &[0.0, 1.0]);
        users.set_row(2, &[0.5, 0.5]);
        let mut items = Matrix::zeros(5, 2);
        for i in 0..5 {
            items.set_row(i, &[i as f32 * 0.25, 1.0 - i as f32 * 0.25]);
        }
        let frozen = FrozenModel::dense(
            "toy",
            users,
            items,
            FrozenHead::DotBias { bias: vec![0.0; 5] },
        );
        FrozenEngine::new(frozen, &[vec![0], vec![], vec![4]], EngineConfig::default()).unwrap()
    }

    fn log() -> Vec<Request> {
        (0..40u32)
            .map(|i| Request {
                user: i % 3,
                k: 1 + (i as usize % 4),
            })
            .collect()
    }

    #[test]
    fn responses_come_back_in_request_order() {
        let engine = toy_engine();
        let reqs = log();
        let out = replay(&engine, &reqs, &ReplayConfig::default());
        assert_eq!(out.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&out) {
            assert_eq!(req.user, resp.user);
            assert_eq!(req.k, resp.k);
            assert!(resp.error.is_none());
        }
    }

    #[test]
    fn worker_count_does_not_change_bytes() {
        let reqs = log();
        let reference = responses_to_json(&replay(
            &toy_engine(),
            &reqs,
            &ReplayConfig {
                workers: 1,
                max_batch: 4,
                ..ReplayConfig::default()
            },
        ));
        for workers in [2, 4] {
            let got = responses_to_json(&replay(
                &toy_engine(),
                &reqs,
                &ReplayConfig {
                    workers,
                    max_batch: 4,
                    ..ReplayConfig::default()
                },
            ));
            assert_eq!(reference, got, "workers={workers} diverged");
        }
    }

    #[test]
    fn unknown_user_becomes_error_response() {
        let engine = toy_engine();
        let out = replay(
            &engine,
            &[Request { user: 42, k: 3 }],
            &ReplayConfig::default(),
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].recs.is_empty());
        assert!(out[0].error.as_deref().is_some_and(|e| e.contains("42")));
    }

    #[test]
    fn empty_log_yields_empty_responses() {
        let engine = toy_engine();
        assert!(replay(&engine, &[], &ReplayConfig::default()).is_empty());
    }

    #[test]
    fn json_rendering_is_compact_and_stable() {
        let mut r = Response {
            user: 1,
            k: 2,
            recs: vec![Recommendation {
                item: scenerec_graph::ItemId(7),
                score: 0.5,
            }],
            error: None,
            degraded: false,
            partial_shards: Vec::new(),
            overload: None,
        };
        assert_eq!(
            r.to_json(),
            "{\"user\":1,\"k\":2,\"recs\":[{\"item\":7,\"score\":0.5}]}"
        );
        r.degraded = true;
        assert_eq!(
            r.to_json(),
            "{\"user\":1,\"k\":2,\"recs\":[{\"item\":7,\"score\":0.5}],\"degraded\":true}"
        );
        r.partial_shards = vec![1, 3];
        assert_eq!(
            r.to_json(),
            "{\"user\":1,\"k\":2,\"recs\":[{\"item\":7,\"score\":0.5}],\"degraded\":true,\
             \"partial_shards\":[1,3]}"
        );
    }

    #[test]
    fn worker_panics_lose_and_duplicate_nothing() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = log();
        let reference = replay(&engine, &reqs, &ReplayConfig::default());
        for workers in [1usize, 2, 4] {
            let cfg = ReplayConfig {
                workers,
                max_batch: 4,
                // Generous budget: which batch absorbs which panic is
                // scheduling-dependent, and this test asserts recovery,
                // not exhaustion.
                max_retries: 16,
                ..ReplayConfig::default()
            };
            // Every 3rd batch claim panics its worker.
            let inj = Injector::new(FaultPlan::new(workers as u64).inject(
                "serve/worker",
                Trigger::Every(3),
                Fault::Panic,
            ));
            let out = replay_supervised(&engine, &reqs, &cfg, &inj);
            assert!(inj.injected() > 0, "plan never fired at workers={workers}");
            assert_eq!(out, reference, "responses diverged at workers={workers}");
        }
    }

    #[test]
    fn exhausted_worker_requeues_become_error_responses() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = log();
        let cfg = ReplayConfig {
            workers: 2,
            max_batch: 8,
            max_retries: 1,
            ..ReplayConfig::default()
        };
        // Every batch claim panics: each batch burns its single requeue
        // and is answered with errors — but answered.
        let inj =
            Injector::new(FaultPlan::new(5).inject("serve/worker", Trigger::Always, Fault::Panic));
        let out = replay_supervised(&engine, &reqs, &cfg, &inj);
        assert_eq!(out.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&out) {
            assert_eq!(req.user, resp.user);
            assert!(resp
                .error
                .as_deref()
                .is_some_and(|e| e.contains("worker failed")));
        }
    }

    #[test]
    fn engine_outage_retries_then_degrades_to_stale() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = vec![Request { user: 1, k: 2 }, Request { user: 1, k: 2 }];
        let cfg = ReplayConfig {
            workers: 1,
            max_batch: 1,
            max_retries: 1,
            ..ReplayConfig::default()
        };
        // The first request succeeds and seeds the stale cache; the
        // second request's attempts (probes 2 and 3) all fail.
        let inj =
            Injector::new(FaultPlan::new(9).inject("serve/engine", Trigger::After(1), Fault::Io));
        let out = replay_supervised(&engine, &reqs, &cfg, &inj);
        assert!(out[0].error.is_none() && !out[0].degraded);
        assert!(out[1].degraded, "second response must be a stale fallback");
        assert!(out[1].error.is_none());
        assert_eq!(out[0].recs, out[1].recs, "stale equals fresh bit-for-bit");
    }

    #[test]
    fn engine_outage_without_stale_entry_is_typed_error() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = vec![Request { user: 0, k: 2 }];
        let cfg = ReplayConfig {
            workers: 1,
            max_retries: 2,
            ..ReplayConfig::default()
        };
        let inj =
            Injector::new(FaultPlan::new(11).inject("serve/engine", Trigger::Always, Fault::Io));
        let out = replay_supervised(&engine, &reqs, &cfg, &inj);
        assert!(out[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("engine unavailable after 2 retries")));
        assert!(!out[0].degraded);
    }

    /// The 48-request log as a single tick-0 burst: everything arrives
    /// before the first drain round, so tiny capacities must shed.
    fn timed_burst() -> Vec<TimedRequest> {
        log()
            .into_iter()
            .map(|request| TimedRequest {
                arrive_tick: 0,
                request,
            })
            .collect()
    }

    fn tiny_bounds() -> BoundedReplayConfig {
        BoundedReplayConfig {
            replay: ReplayConfig {
                max_batch: 4,
                ..ReplayConfig::default()
            },
            admission: AdmissionConfig {
                fast_capacity: 4,
                cold_capacity: 6,
                drain_every_ticks: 100,
                drain_per_round: 1,
                ..AdmissionConfig::default()
            },
        }
    }

    #[test]
    fn bounded_burst_sheds_typed_and_accounts_exactly() {
        let engine = toy_engine();
        let arrivals = timed_burst();
        let (out, plan) = replay_bounded(&engine, &arrivals, &tiny_bounds());
        assert_eq!(out.len(), arrivals.len());
        assert_eq!(plan.admitted() + plan.shed(), plan.offered());
        assert!(plan.shed() > 0, "burst must overflow the toy capacities");
        let shed = out.iter().filter(|r| r.overload.is_some()).count();
        assert_eq!(shed, plan.shed(), "every planned shed is answered");
        for r in &out {
            match r.outcome() {
                "overloaded" => {
                    let info = r.overload.expect("typed overload info");
                    assert!(info.retry_after_ticks >= 1);
                    assert!(info.queue_depth > 0);
                    assert!(r.recs.is_empty() && r.error.is_none() && !r.degraded);
                    assert!(r.to_json().contains("\"overloaded\":{\"lane\":"));
                }
                "ok" => assert!(r.overload.is_none()),
                other => panic!("unexpected outcome {other}"),
            }
        }
    }

    #[test]
    fn bounded_worker_count_does_not_change_bytes() {
        let arrivals = timed_burst();
        let cfg = tiny_bounds();
        let (reference, ref_plan) = replay_bounded(&toy_engine(), &arrivals, &cfg);
        let reference = responses_to_json(&reference);
        for workers in [2usize, 4] {
            let mut cfg = cfg.clone();
            cfg.replay.workers = workers;
            let (out, plan) = replay_bounded(&toy_engine(), &arrivals, &cfg);
            assert_eq!(plan, ref_plan, "plan changed at workers={workers}");
            assert_eq!(
                responses_to_json(&out),
                reference,
                "bytes diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn zero_capacity_sheds_everything_and_still_answers() {
        let engine = toy_engine();
        let arrivals = timed_burst();
        let mut cfg = tiny_bounds();
        cfg.admission.fast_capacity = 0;
        cfg.admission.cold_capacity = 0;
        let (out, plan) = replay_bounded(&engine, &arrivals, &cfg);
        assert_eq!(plan.shed(), arrivals.len());
        assert_eq!(out.len(), arrivals.len());
        assert!(out.iter().all(|r| r.outcome() == "overloaded"));
    }

    /// Satellite regression for the lane-mutex split: claiming fast-lane
    /// work must never lock the cold lane's queue mutex. The test holds
    /// the cold mutex on the *same* thread and then pops the fast lane —
    /// if `pop_weighted` ever touched the cold mutex on that path, this
    /// would deadlock (std mutexes are non-reentrant) and the test
    /// would hang instead of passing.
    #[test]
    fn fast_lane_pop_never_touches_the_cold_mutex() {
        let engine = toy_engine();
        let reqs = log();
        let config = ReplayConfig::default();
        let inj = Injector::disabled();
        let batch = |lane| Batch {
            lane,
            start: 0,
            end: 2,
            requeues: 0,
        };
        let shared = Shared {
            engine: &engine,
            requests: &reqs,
            config: &config,
            injector: &inj,
            weights: (4, 1),
            order: [vec![0, 1], vec![2, 3]],
            fast: Mutex::new(VecDeque::from([batch(Lane::Fast)])),
            cold: Mutex::new(VecDeque::from([batch(Lane::Cold)])),
            slots: Mutex::new(vec![None; 4]),
            stale: Mutex::new(BTreeMap::new()),
            traces: None,
        };
        let _cold_guard = shared.cold.lock().expect("test holds the cold lane");
        let mut shares = LaneShares {
            fast_left: 0,
            cold_left: 0,
        };
        let claimed = shared
            .pop_weighted(&mut shares)
            .expect("fast batch claimed while cold lane is held");
        assert_eq!(claimed.lane, Lane::Fast);
    }

    #[test]
    fn injected_latency_past_deadline_is_deadline_error() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = vec![Request { user: 0, k: 1 }, Request { user: 1, k: 1 }];
        let cfg = ReplayConfig {
            workers: 1,
            max_batch: 1,
            deadline_ticks: 100,
            ..ReplayConfig::default()
        };
        let inj = Injector::new(FaultPlan::new(13).inject(
            "serve/request",
            Trigger::Nth(2),
            Fault::Latency(250),
        ));
        let out = replay_supervised(&engine, &reqs, &cfg, &inj);
        assert!(out[0].error.is_none(), "request under deadline serves");
        assert!(out[1]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("deadline exceeded: 250 > 100")));
    }
}
