//! Chaos suite: seeded fault schedules swept over every injection point
//! in the serving and training stacks.
//!
//! Every schedule is a [`FaultPlan`] — a pure function of a seed and
//! logical invocation counters — so each test replays identically on
//! every run. The seed defaults to 7 and can be varied from the outside
//! (CI runs two) with `CHAOS_SEED=<n> cargo test --test chaos`.
//!
//! Injection points covered:
//!
//! | point               | failure injected                  | expected recovery                    |
//! |---------------------|-----------------------------------|--------------------------------------|
//! | `checkpoint/write`  | I/O error, torn write, bit-flip   | typed error / fallback to older file |
//! | `checkpoint/commit` | I/O error before rename           | no checkpoint file left behind       |
//! | `checkpoint/read`   | I/O error, corruption on read     | fallback across the retention window |
//! | `serve/worker`      | worker panic                      | respawn + exactly-once requeue       |
//! | `serve/engine`      | engine unavailable                | bounded retry, then stale/degraded   |
//! | `serve/request`     | artificial latency                | typed deadline-exceeded response     |
//! | `train/epoch`       | crash between epochs              | byte-identical resume                |

use scenerec_core::checkpoint::{self, CheckpointError, CheckpointStore};
use scenerec_core::trainer::{train_resumable, ResumableTrainConfig, TrainConfig, TrainRunError};
use scenerec_core::{FrozenHead, FrozenModel, PairwiseModel, Precision, SceneRec, SceneRecConfig};
use scenerec_data::{generate, Dataset, GeneratorConfig};
use scenerec_faults::{Fault, FaultPlan, Injector, Trigger};
use scenerec_serve::{
    merge_top_k, replay, replay_bounded, replay_bounded_supervised, replay_sharded,
    replay_sharded_bounded, replay_sharded_bounded_supervised, replay_sharded_supervised,
    replay_supervised, responses_to_json, AdmissionConfig, BoundedReplayConfig, EngineConfig,
    FrozenEngine, ReplayConfig, Request, ShardReplayConfig, ShardedConfig, ShardedEngine,
    TimedRequest, Verdict,
};
use scenerec_tensor::Matrix;

/// The chaos seed: every fault plan in this file derives from it, so one
/// environment variable re-rolls the whole suite.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// A unique, pre-cleaned temp dir per (test, seed).
fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("scenerec-chaos-tests")
        .join(format!("{name}-{}", chaos_seed()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small deterministic snapshot: 4 users x 6 items, distinct scores.
fn toy_frozen() -> (FrozenModel, Vec<Vec<u32>>) {
    let mut users = Matrix::zeros(4, 2);
    users.set_row(0, &[1.0, 0.0]);
    users.set_row(1, &[0.0, 1.0]);
    users.set_row(2, &[0.5, 0.5]);
    users.set_row(3, &[0.25, 0.75]);
    let mut items = Matrix::zeros(6, 2);
    for i in 0..6 {
        items.set_row(i, &[i as f32 * 0.2, 1.0 - i as f32 * 0.2]);
    }
    let frozen = FrozenModel::dense(
        "chaos-toy",
        users,
        items,
        FrozenHead::DotBias { bias: vec![0.0; 6] },
    );
    let seen = vec![vec![0], vec![], vec![5], vec![1, 2]];
    (frozen, seen)
}

fn toy_engine() -> FrozenEngine {
    let (frozen, seen) = toy_frozen();
    FrozenEngine::new(frozen, &seen, EngineConfig::default()).unwrap()
}

/// The same snapshot range-partitioned across `shards` item ranges.
fn toy_sharded(shards: usize) -> ShardedEngine {
    let (frozen, seen) = toy_frozen();
    ShardedEngine::new(frozen, &seen, ShardedConfig::with_shards(shards)).unwrap()
}

fn request_log() -> Vec<Request> {
    (0..48u32)
        .map(|i| Request {
            user: i % 4,
            k: 1 + (i as usize % 3),
        })
        .collect()
}

/// A tiny training setup; model construction is deterministic from the
/// config, so "the same model" is re-created rather than cloned.
fn tiny_setup() -> (Dataset, SceneRecConfig, TrainConfig) {
    let seed = chaos_seed();
    let data = generate(&GeneratorConfig::tiny(9000 + seed)).unwrap();
    let mcfg = SceneRecConfig::default().with_dim(8).with_seed(seed);
    let cfg = TrainConfig {
        epochs: 4,
        eval_every: 1,
        patience: 0,
        threads: 2,
        seed,
        ..TrainConfig::default()
    };
    (data, mcfg, cfg)
}

/// Every parameter value of a model, for bit-exact comparisons.
fn params_of(model: &SceneRec) -> Vec<Vec<u32>> {
    model
        .store()
        .iter()
        .map(|(_, p)| p.value().as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

// ---------------------------------------------------------------------
// The sweep: every injection point fires and is absorbed as a typed
// outcome — never an unhandled panic, never silent data loss.
// ---------------------------------------------------------------------

#[test]
fn every_injection_point_is_exercised_and_absorbed() {
    let seed = chaos_seed();
    let (data, mcfg, cfg) = tiny_setup();
    let model = SceneRec::new(mcfg.clone(), &data);
    let dir = tmp_dir("sweep");

    // checkpoint/write: the save fails with a typed I/O error.
    let inj =
        Injector::new(FaultPlan::new(seed).inject("checkpoint/write", Trigger::Always, Fault::Io));
    let err = checkpoint::save_full(&model, None, None, &dir.join("w.sck"), &inj).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    assert!(inj.injected() >= 1);

    // checkpoint/commit: the failed commit leaves no file behind.
    let inj =
        Injector::new(FaultPlan::new(seed).inject("checkpoint/commit", Trigger::Always, Fault::Io));
    let path = dir.join("c.sck");
    assert!(checkpoint::save_full(&model, None, None, &path, &inj).is_err());
    assert!(!path.exists(), "aborted commit must not leave a checkpoint");

    // checkpoint/read: corruption on the read path is a typed error.
    let good = dir.join("r.sck");
    checkpoint::save_full(&model, None, None, &good, &Injector::disabled()).unwrap();
    let inj = Injector::new(FaultPlan::new(seed).inject(
        "checkpoint/read",
        Trigger::Always,
        Fault::BitFlip,
    ));
    let err = checkpoint::load_full(&good, &data, &inj).unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::CorruptSection { .. }
                | CheckpointError::Truncated { .. }
                | CheckpointError::Malformed(_)
                | CheckpointError::BadVersion { .. }
        ),
        "{err}"
    );

    // serve/worker: a panicking worker is respawned and its batch served.
    let engine = toy_engine();
    let reqs = request_log();
    let inj =
        Injector::new(FaultPlan::new(seed).inject("serve/worker", Trigger::Nth(1), Fault::Panic));
    let scfg = ReplayConfig {
        workers: 2,
        max_batch: 8,
        ..ReplayConfig::default()
    };
    let out = replay_supervised(&engine, &reqs, &scfg, &inj);
    assert_eq!(out.len(), reqs.len());
    assert!(out.iter().all(|r| r.error.is_none()));

    // serve/engine: outages become bounded retries, then typed errors.
    let inj =
        Injector::new(FaultPlan::new(seed).inject("serve/engine", Trigger::Always, Fault::Io));
    let scfg = ReplayConfig {
        degraded: false,
        ..ReplayConfig::default()
    };
    let out = replay_supervised(&engine, &reqs[..4], &scfg, &inj);
    assert!(out.iter().all(|r| r
        .error
        .as_deref()
        .is_some_and(|e| e.contains("engine unavailable"))));

    // serve/request: injected latency past the deadline is typed.
    let inj = Injector::new(FaultPlan::new(seed).inject(
        "serve/request",
        Trigger::Always,
        Fault::Latency(1_000),
    ));
    let scfg = ReplayConfig {
        deadline_ticks: 100,
        ..ReplayConfig::default()
    };
    let out = replay_supervised(&engine, &reqs[..4], &scfg, &inj);
    assert!(out.iter().all(|r| r
        .error
        .as_deref()
        .is_some_and(|e| e.contains("deadline exceeded"))));

    // train/epoch: an injected crash surfaces as Interrupted.
    let mut model = SceneRec::new(mcfg, &data);
    let rcfg = ResumableTrainConfig::new(tmp_dir("sweep-train"), 1);
    let inj =
        Injector::new(FaultPlan::new(seed).inject("train/epoch", Trigger::Nth(1), Fault::Panic));
    let err = train_resumable(&mut model, &data, &cfg, &rcfg, &inj).unwrap_err();
    assert!(
        matches!(err, TrainRunError::Interrupted { epoch: 0 }),
        "{err}"
    );
}

// ---------------------------------------------------------------------
// Serving under chaos
// ---------------------------------------------------------------------

/// Worker panic storms at any worker count: exactly-once delivery, and
/// recovered output is byte-identical to a fault-free run (responses are
/// unaffected by which worker ultimately serves them).
#[test]
fn worker_panic_storms_never_lose_or_duplicate_responses() {
    let engine = toy_engine();
    let reqs = request_log();
    let reference = responses_to_json(&replay(
        &engine,
        &reqs,
        &ReplayConfig {
            max_batch: 4,
            ..ReplayConfig::default()
        },
    ));
    for workers in [1usize, 2, 4] {
        let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
            "serve/worker",
            Trigger::Every(3),
            Fault::Panic,
        ));
        let cfg = ReplayConfig {
            workers,
            max_batch: 4,
            // Every third claim panics, so allow generous requeues: the
            // invariant under test is delivery, not the retry budget.
            max_retries: 32,
            ..ReplayConfig::default()
        };
        let got = responses_to_json(&replay_supervised(&engine, &reqs, &cfg, &inj));
        assert!(inj.injected() >= 1, "plan never fired at workers={workers}");
        assert_eq!(reference, got, "workers={workers} diverged under panics");
    }
}

/// A mid-run engine outage: requests served before the outage seed the
/// stale cache; identical requests during the outage degrade to results
/// that are bit-identical to the fresh ones, flagged `degraded`.
#[test]
fn engine_outage_degrades_to_bit_identical_stale_results() {
    let engine = toy_engine();
    // Two identical passes over the same 6 (user, k) pairs.
    let pass: Vec<Request> = (0..6u32)
        .map(|i| Request {
            user: i % 3,
            k: 1 + (i as usize % 2),
        })
        .collect();
    let mut reqs = pass.clone();
    reqs.extend(pass.iter().copied());

    // The first 6 engine calls succeed, everything after is down.
    let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
        "serve/engine",
        Trigger::After(6),
        Fault::Io,
    ));
    let cfg = ReplayConfig {
        workers: 1, // keep the global invocation order = request order
        max_retries: 1,
        ..ReplayConfig::default()
    };
    let out = replay_supervised(&engine, &reqs, &cfg, &inj);
    assert_eq!(out.len(), 12);
    for (fresh, stale) in out[..6].iter().zip(&out[6..]) {
        assert!(fresh.error.is_none() && !fresh.degraded);
        assert!(
            stale.error.is_none(),
            "stale fallback failed: {:?}",
            stale.error
        );
        assert!(stale.degraded, "outage response must be flagged degraded");
        assert_eq!(fresh.recs, stale.recs, "stale must be bit-identical");
    }
}

/// The same outage without a warmed stale cache: typed error responses,
/// with the retry count visible in the message.
#[test]
fn engine_outage_without_stale_results_is_a_typed_error() {
    let engine = toy_engine();
    let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
        "serve/engine",
        Trigger::Always,
        Fault::Io,
    ));
    let cfg = ReplayConfig {
        max_retries: 3,
        ..ReplayConfig::default()
    };
    let out = replay_supervised(&engine, &[Request { user: 1, k: 2 }], &cfg, &inj);
    assert!(out[0]
        .error
        .as_deref()
        .is_some_and(|e| e.contains("engine unavailable after 3 retries")));
    assert!(out[0].recs.is_empty() && !out[0].degraded);
}

/// An engine outage that hits one request in the middle of a batch:
/// that request's probe and its one retry fail, so it degrades to the
/// stale result its earlier batch-mate with the same `(user, k)` just
/// produced; the rest of the batch still goes to the engine together.
/// Bytes, engine cache counters, injector counts and span structure
/// all equal serving the same log one request per batch.
#[test]
fn mid_batch_engine_fault_degrades_one_request_and_spares_its_batch_mates() {
    use scenerec_obs::trace::structure_digest;
    use scenerec_obs::FieldValue;
    use scenerec_serve::replay_traced_supervised;

    let reqs = vec![
        Request { user: 0, k: 2 },
        Request { user: 1, k: 2 },
        Request { user: 2, k: 1 },
        Request { user: 0, k: 2 },
        Request { user: 3, k: 2 },
        Request { user: 1, k: 1 },
    ];
    // Engine probes 4 and 5 are request 3's attempt and its retry.
    let injector = || {
        Injector::new(
            FaultPlan::new(chaos_seed())
                .inject("serve/engine", Trigger::Nth(4), Fault::Io)
                .inject("serve/engine", Trigger::Nth(5), Fault::Io),
        )
    };
    let run = |max_batch: usize| {
        let engine = toy_engine();
        let inj = injector();
        let cfg = ReplayConfig {
            workers: 1,
            max_batch,
            max_retries: 1,
            ..ReplayConfig::default()
        };
        let (out, traces) = replay_traced_supervised(&engine, &reqs, &cfg, &inj);
        (out, traces, engine.cache_stats(), inj.injected())
    };
    let (out, traces, stats, injected) = run(8);
    assert_eq!(out.len(), reqs.len(), "exactly one response per request");
    assert_eq!(injected, 2);
    for (i, (req, resp)) in reqs.iter().zip(&out).enumerate() {
        assert_eq!((resp.user, resp.k), (req.user, req.k));
        assert!(resp.error.is_none(), "request {i}: {:?}", resp.error);
        assert_eq!(resp.degraded, i == 3, "request {i} degraded flag");
    }
    assert_eq!(out[3].recs, out[0].recs, "stale equals fresh bit for bit");
    // Batch-mates share one serve.batch window and each reached the
    // engine; the faulted request never did.
    for (i, t) in traces.iter().enumerate() {
        let batch = t.span_named("serve.batch").expect("batch span");
        assert_eq!(batch.field("batch_end"), Some(&FieldValue::Int(6)));
        assert_eq!(t.span_named("serve.cache").is_some(), i != 3, "request {i}");
    }
    let (want, want_traces, want_stats, want_injected) = run(1);
    assert_eq!(responses_to_json(&out), responses_to_json(&want));
    assert_eq!(stats, want_stats, "engine cache counters");
    assert_eq!(injected, want_injected);
    assert_eq!(structure_digest(&traces), structure_digest(&want_traces));
}

/// Latency injection on alternating requests: exactly the slowed
/// requests miss the deadline; the rest are served normally.
#[test]
fn latency_injection_misses_deadlines_exactly_where_armed() {
    let engine = toy_engine();
    let reqs = request_log();
    let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
        "serve/request",
        Trigger::Every(2),
        Fault::Latency(500),
    ));
    let cfg = ReplayConfig {
        workers: 1, // request i is invocation i + 1 of serve/request
        deadline_ticks: 100,
        ..ReplayConfig::default()
    };
    let out = replay_supervised(&engine, &reqs, &cfg, &inj);
    for (i, resp) in out.iter().enumerate() {
        if (i + 1) % 2 == 0 {
            assert!(
                resp.error
                    .as_deref()
                    .is_some_and(|e| e.contains("deadline exceeded")),
                "request {i} should have missed its deadline: {resp:?}"
            );
        } else {
            assert!(
                resp.error.is_none(),
                "request {i} should be clean: {resp:?}"
            );
        }
    }
}

/// A worker panic dumps the flight recorder: the supervisor's warning
/// event carries the last ring-buffer entries, which must include the
/// batch claim that died and the injected fault that killed it.
#[test]
fn worker_panic_dumps_flight_recorder() {
    use scenerec_obs::{add_sink, flight, remove_sink, FieldValue, Level, MemorySink};
    use std::sync::Arc;

    // Start from a clean recorder so the dump reflects this run only.
    let _ = flight::drain();
    let sink = Arc::new(MemorySink::new());
    let handle = add_sink(sink.clone());

    let engine = toy_engine();
    let reqs = request_log();
    let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
        "serve/worker",
        Trigger::Nth(2),
        Fault::Panic,
    ));
    let cfg = ReplayConfig {
        workers: 2,
        max_batch: 8,
        max_retries: 8,
        ..ReplayConfig::default()
    };
    let out = replay_supervised(&engine, &reqs, &cfg, &inj);
    remove_sink(handle);
    assert_eq!(out.len(), reqs.len());
    assert!(inj.injected() >= 1, "panic plan never fired");

    // The supervisor runs on the calling thread, so its warning is in
    // this thread's slice of the memory sink.
    let warnings: Vec<_> = sink
        .events_for_current_thread()
        .into_iter()
        .filter(|e| e.level == Level::Warn && e.message.contains("worker panicked"))
        .collect();
    assert!(!warnings.is_empty(), "no supervisor warning was emitted");
    let dump = warnings
        .iter()
        .find_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("dump", FieldValue::Str(s)) => Some(s.clone()),
                _ => None,
            })
        })
        .expect("supervisor warning must carry a flight-recorder dump");
    assert!(
        dump.contains("serve.batch.claim"),
        "dump must show the claim that died:\n{dump}"
    );
    assert!(
        dump.contains("faults.injected") && dump.contains("Panic at serve/worker"),
        "dump must show the injected fault:\n{dump}"
    );
}

// ---------------------------------------------------------------------
// Admission-controlled serving under chaos
// ---------------------------------------------------------------------

/// The request log as a single burst at tick 0, so tiny queue bounds are
/// guaranteed to overflow and the admission gate sheds under the fault.
fn timed_burst() -> Vec<TimedRequest> {
    request_log()
        .into_iter()
        .map(|request| TimedRequest {
            arrive_tick: 0,
            request,
        })
        .collect()
}

/// Bounds small enough that the burst sheds in both lanes.
fn tight_bounds(workers: usize) -> BoundedReplayConfig {
    BoundedReplayConfig {
        replay: ReplayConfig {
            workers,
            max_batch: 4,
            max_retries: 32,
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

/// Worker panic storms while the queues are at capacity: the fault layer
/// must neither lose an admitted request nor resurrect a shed one.
/// Every arrival gets exactly one response — Ok, Degraded, or typed
/// Overloaded — the shed set is unchanged from the fault-free run, and
/// recovered output is byte-identical at every worker count.
#[test]
fn bounded_worker_panics_at_capacity_preserve_exactly_once() {
    let arrivals = timed_burst();
    let engine = toy_engine();
    let (fault_free, reference_plan) = replay_bounded(&engine, &arrivals, &tight_bounds(1));
    let reference = responses_to_json(&fault_free);
    assert!(
        reference_plan.shed() > 0 && reference_plan.admitted() > 0,
        "the burst must actually contend with the bounds"
    );

    for workers in [1usize, 2, 4] {
        let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
            "serve/worker",
            Trigger::Every(3),
            Fault::Panic,
        ));
        let (out, plan) =
            replay_bounded_supervised(&engine, &arrivals, &tight_bounds(workers), &inj);
        assert!(inj.injected() >= 1, "plan never fired at workers={workers}");

        // Panics cannot shed admitted work or admit shed work: the plan
        // is decided before any worker exists.
        assert_eq!(plan, reference_plan, "workers={workers} changed the plan");

        // Exactly-once, typed: one response per arrival, each shaped by
        // its verdict.
        assert_eq!(out.len(), arrivals.len());
        for (i, (verdict, resp)) in plan.verdicts.iter().zip(&out).enumerate() {
            match verdict {
                Verdict::Shed(info) => {
                    assert_eq!(
                        resp.overload,
                        Some(*info),
                        "request {i}: shed must be typed"
                    );
                    assert!(resp.error.is_none() && resp.recs.is_empty());
                }
                Verdict::Admit { .. } => {
                    assert!(
                        resp.overload.is_none(),
                        "request {i}: admitted yet overloaded"
                    );
                    assert!(resp.error.is_none(), "request {i}: {:?}", resp.error);
                }
            }
        }
        assert_eq!(
            reference,
            responses_to_json(&out),
            "workers={workers} diverged under panics at capacity"
        );
    }
}

/// The same storm on the sharded bounded path: scatter-gather across
/// shards with panicking shard workers still answers every arrival
/// exactly once with the fault-free bytes and the fault-free shed set.
#[test]
fn sharded_bounded_worker_panics_at_capacity_preserve_exactly_once() {
    let arrivals = timed_burst();
    let admission = tight_bounds(1).admission;
    let (fault_free, reference_plan) = replay_sharded_bounded(
        &toy_sharded(4),
        &arrivals,
        &ShardReplayConfig {
            max_batch: 4,
            ..ShardReplayConfig::default()
        },
        &admission,
    );
    let reference = responses_to_json(&fault_free);
    assert!(reference_plan.shed() > 0 && reference_plan.admitted() > 0);

    for workers in [1usize, 2, 4] {
        let engine = toy_sharded(4);
        let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
            "serve/shard_worker",
            Trigger::Every(3),
            Fault::Panic,
        ));
        let cfg = ShardReplayConfig {
            workers,
            max_batch: 4,
            max_retries: 32,
            ..ShardReplayConfig::default()
        };
        let (out, plan) =
            replay_sharded_bounded_supervised(&engine, &arrivals, &cfg, &admission, &inj);
        assert!(inj.injected() >= 1, "plan never fired at workers={workers}");
        assert_eq!(plan, reference_plan, "workers={workers} changed the plan");
        assert_eq!(out.len(), arrivals.len());
        for (verdict, resp) in plan.verdicts.iter().zip(&out) {
            match verdict {
                Verdict::Shed(info) => assert_eq!(resp.overload, Some(*info)),
                Verdict::Admit { .. } => assert!(resp.overload.is_none()),
            }
        }
        assert_eq!(
            reference,
            responses_to_json(&out),
            "workers={workers} diverged under shard panics at capacity"
        );
    }
}

// ---------------------------------------------------------------------
// Sharded serving under chaos
// ---------------------------------------------------------------------

/// Shard-worker panic storms at any worker count: the supervisor
/// respawns the dead slot and requeues its in-flight (batch x shard)
/// task exactly once, so recovered output is byte-identical to a
/// fault-free run — no lost cells, no double-served cells.
#[test]
fn shard_worker_panic_storms_never_lose_or_duplicate_responses() {
    let reqs = request_log();
    let reference = responses_to_json(&replay_sharded(
        &toy_sharded(4),
        &reqs,
        &ShardReplayConfig {
            max_batch: 4,
            ..ShardReplayConfig::default()
        },
    ));
    for workers in [1usize, 2, 4] {
        let engine = toy_sharded(4);
        let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
            "serve/shard_worker",
            Trigger::Every(3),
            Fault::Panic,
        ));
        let cfg = ShardReplayConfig {
            workers,
            max_batch: 4,
            // Every third claim panics; the invariant under test is
            // exactly-once delivery, not the requeue budget.
            max_retries: 32,
            ..ShardReplayConfig::default()
        };
        let got = responses_to_json(&replay_sharded_supervised(&engine, &reqs, &cfg, &inj));
        assert!(inj.injected() >= 1, "plan never fired at workers={workers}");
        assert_eq!(
            reference, got,
            "workers={workers} diverged under shard-worker panics"
        );
    }
}

/// One shard down past its retry budget: every response degrades, names
/// the dead shard in `partial_shards`, and carries the *exact* merge of
/// the surviving shards — independently recomputed here — so the outage
/// is never silently truncated into a shorter clean-looking answer.
#[test]
fn shard_outage_degrades_to_exact_merge_of_survivors() {
    let reqs = request_log();
    let engine = toy_sharded(4);
    let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
        "serve/shard/2",
        Trigger::Always,
        Fault::Io,
    ));
    let out = replay_sharded_supervised(&engine, &reqs, &ShardReplayConfig::default(), &inj);
    assert_eq!(out.len(), reqs.len());
    let dead = engine.shard_map().range(2).expect("shard 2 exists");
    for (req, resp) in reqs.iter().zip(&out) {
        assert!(
            resp.error.is_none(),
            "outage must degrade, not error: {:?}",
            resp.error
        );
        assert!(resp.degraded, "missing shard must flag the response");
        assert_eq!(resp.partial_shards, vec![2], "the dead shard is named");
        assert!(
            resp.recs.iter().all(|r| !dead.contains(&r.item.raw())),
            "user {}: a rec came from the dead shard",
            req.user
        );
        let partials: Vec<_> = [0usize, 1, 3]
            .iter()
            .map(|&s| engine.partial_top_k(s, req.user, req.k).unwrap().recs)
            .collect();
        assert_eq!(
            resp.recs,
            merge_top_k(&partials, req.k),
            "user {} k {}: not the exact merge of the survivors",
            req.user,
            req.k
        );
    }
}

/// Every shard down: the response is a typed error naming the first
/// dead shard and its retry count — never an empty-but-clean result.
#[test]
fn full_shard_outage_is_a_typed_error_not_an_empty_result() {
    let engine = toy_sharded(4);
    let mut plan = FaultPlan::new(chaos_seed());
    for s in 0..4 {
        plan = plan.inject(&format!("serve/shard/{s}"), Trigger::Always, Fault::Io);
    }
    let inj = Injector::new(plan);
    let out = replay_sharded_supervised(
        &engine,
        &[Request { user: 1, k: 3 }],
        &ShardReplayConfig::default(),
        &inj,
    );
    let err = out[0].error.as_deref().expect("full outage must be typed");
    assert!(err.contains("shard 0 unavailable after 2 retries"), "{err}");
    assert!(out[0].recs.is_empty());
    assert!(!out[0].degraded && out[0].partial_shards.is_empty());
}

// ---------------------------------------------------------------------
// Checkpointing under chaos
// ---------------------------------------------------------------------

/// Torn writes corrupt the newest checkpoints on disk; the store heals
/// by falling back to the newest file that passes every CRC.
#[test]
fn checkpoint_store_falls_back_over_corrupted_tail() {
    let (data, mcfg, _) = tiny_setup();
    let model = SceneRec::new(mcfg, &data);
    let store = CheckpointStore::new(tmp_dir("store-fallback"), 10);

    // Epochs 0..=3 are written cleanly; every write from epoch 4 on is
    // torn, so epoch 3 is the newest good file.
    let ok = Injector::disabled();
    let evil = Injector::new(FaultPlan::new(chaos_seed()).inject(
        "checkpoint/write",
        Trigger::Always,
        Fault::BitFlip,
    ));
    for epoch in 0..=6 {
        let inj = if epoch >= 4 { &evil } else { &ok };
        store.save(&model, None, None, epoch, inj).unwrap();
    }
    let (loaded, epoch) = store
        .load_latest_good(&data, &Injector::disabled())
        .unwrap()
        .expect("a good checkpoint must survive");
    assert_eq!(epoch, 3, "newest un-torn checkpoint wins");
    assert_eq!(params_of(&loaded.model), params_of(&model));
}

/// Corruption confined to the quantized `frozen` section must not take
/// serving down: the newest file is truncated mid-frozen-payload, the
/// next has a frozen bit flipped, and `load_latest_good` walks past both
/// to the oldest file — whose quantized model survives intact.
#[test]
fn store_falls_back_over_corrupted_frozen_sections() {
    let (data, mcfg, _) = tiny_setup();
    let model = SceneRec::new(mcfg, &data);
    let store = CheckpointStore::new(tmp_dir("store-frozen"), 10);
    let ok = Injector::disabled();
    let plans = [
        (0usize, Precision::F16),
        (1, Precision::Int8),
        (2, Precision::Int8),
    ];
    for (epoch, precision) in plans {
        let frozen = model
            .freeze_quantized(precision)
            .expect("scenerec freezes at every precision");
        store
            .save_with_frozen(&model, None, None, Some(&frozen), epoch, &ok)
            .unwrap();
    }

    // Locate the frozen section of a file by name — corruption is aimed
    // at *only* that payload, so every other CRC still passes.
    let frozen_span = |bytes: &[u8]| {
        checkpoint::section_spans(bytes)
            .unwrap()
            .into_iter()
            .find(|s| s.name == "frozen")
            .expect("quantized checkpoints carry a frozen section")
    };
    let mut files = store.list().unwrap();
    let (_, newest) = files.pop().unwrap();
    let (_, middle) = files.pop().unwrap();

    let bytes = std::fs::read(&newest).unwrap();
    let cut = frozen_span(&bytes).payload_start + 5;
    std::fs::write(&newest, &bytes[..cut]).unwrap();

    let mut bytes = std::fs::read(&middle).unwrap();
    let at = frozen_span(&bytes).payload_start + 3;
    bytes[at] ^= 0x40;
    std::fs::write(&middle, &bytes).unwrap();

    let (loaded, epoch) = store
        .load_latest_good(&data, &ok)
        .unwrap()
        .expect("the untouched checkpoint must survive");
    assert_eq!(
        epoch, 0,
        "falls back past truncated and bit-flipped frozen sections"
    );
    assert_eq!(params_of(&loaded.model), params_of(&model));
    let frozen = loaded
        .frozen
        .expect("fallback checkpoint still carries its frozen model");
    assert_eq!(frozen.precision(), Precision::F16);
    assert_eq!(frozen.num_users(), data.num_users() as usize);
    assert_eq!(frozen.num_items(), data.num_items() as usize);
}

/// When every retained checkpoint is corrupt the store reports a typed
/// `NoUsable` error naming how many candidates it tried — never a panic,
/// never a silently wrong model.
#[test]
fn fully_corrupted_store_reports_no_usable_checkpoint() {
    let (data, mcfg, _) = tiny_setup();
    let model = SceneRec::new(mcfg, &data);
    let store = CheckpointStore::new(tmp_dir("store-hopeless"), 10);
    let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
        "checkpoint/write",
        Trigger::Always,
        Fault::ShortRead,
    ));
    for epoch in 0..4 {
        store.save(&model, None, None, epoch, &inj).unwrap();
    }
    let err = store
        .load_latest_good(&data, &Injector::disabled())
        .unwrap_err();
    match err {
        CheckpointError::NoUsable { tried, .. } => assert_eq!(tried, 4),
        other => panic!("expected NoUsable, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Corruption matrix: every section, every boundary, one file.
// ---------------------------------------------------------------------

/// Produces one finished v3 checkpoint carrying all four sections
/// (config, params, optimizer, trainer) by running a short resumable
/// training job and taking its newest store file.
fn full_checkpoint_bytes() -> (Dataset, Vec<u8>) {
    let (data, mcfg, cfg) = tiny_setup();
    let mut model = SceneRec::new(mcfg, &data);
    let dir = tmp_dir("matrix");
    let rcfg = ResumableTrainConfig::new(dir.clone(), 1);
    train_resumable(&mut model, &data, &cfg, &rcfg, &Injector::disabled()).unwrap();
    let store = CheckpointStore::new(dir, 3);
    let (_, path) = store.list().unwrap().pop().expect("training checkpointed");
    (data, std::fs::read(path).unwrap())
}

/// Truncating the file at *every* section boundary (header start,
/// payload start, payload end), one byte into each region, and at the
/// commit line yields a typed error — never a panic, never a
/// half-loaded model.
#[test]
fn corruption_matrix_truncation_at_every_boundary_is_typed() {
    let (data, bytes) = full_checkpoint_bytes();
    let spans = checkpoint::section_spans(&bytes).unwrap();
    assert_eq!(spans.len(), 4, "expected config/params/optimizer/trainer");

    let dir = tmp_dir("matrix-trunc");
    let mut cuts: Vec<usize> = vec![0, bytes.len() - 1];
    for span in &spans {
        cuts.extend([span.header_start, span.payload_start, span.payload_end]);
        cuts.extend([span.header_start + 1, span.payload_start + 1]);
    }
    for (i, &cut) in cuts.iter().enumerate() {
        let path = dir.join(format!("cut-{i}.sck"));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = checkpoint::load_full(&path, &data, &Injector::disabled())
            .expect_err("truncated checkpoint must not load");
        assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. }
                    | CheckpointError::CorruptSection { .. }
                    | CheckpointError::Malformed(_)
                    | CheckpointError::BadVersion { .. }
            ),
            "cut at byte {cut}: unexpected error {err}"
        );
    }
}

/// Flipping one bit inside every section's payload trips that section's
/// CRC (or the commit CRC) and is reported as a typed error.
#[test]
fn corruption_matrix_bit_flip_in_every_section_is_typed() {
    let (data, bytes) = full_checkpoint_bytes();
    let spans = checkpoint::section_spans(&bytes).unwrap();
    let dir = tmp_dir("matrix-flip");
    for (i, span) in spans.iter().enumerate() {
        let mut evil = bytes.clone();
        // A deterministic seed-derived offset inside this payload.
        let len = span.payload_end - span.payload_start;
        let at = span.payload_start + (chaos_seed() as usize * 31 + i * 7) % len;
        evil[at] ^= 0x10;
        let path = dir.join(format!("flip-{}.sck", span.name));
        std::fs::write(&path, &evil).unwrap();
        let err = checkpoint::load_full(&path, &data, &Injector::disabled())
            .expect_err("bit-flipped checkpoint must not load");
        assert!(
            matches!(
                err,
                CheckpointError::CorruptSection { .. } | CheckpointError::Malformed(_)
            ),
            "flip in `{}`: unexpected error {err}",
            span.name
        );
    }
}

// ---------------------------------------------------------------------
// Training under chaos
// ---------------------------------------------------------------------

/// Crashing the run after each possible epoch, then resuming, always
/// reproduces the uninterrupted run bit-for-bit: same parameters, same
/// per-epoch records.
#[test]
fn crash_at_every_epoch_then_resume_is_byte_identical() {
    let (data, mcfg, cfg) = tiny_setup();

    // Uninterrupted reference.
    let mut reference = SceneRec::new(mcfg.clone(), &data);
    let rcfg = ResumableTrainConfig::new(tmp_dir("resume-ref"), 1);
    let ref_report =
        train_resumable(&mut reference, &data, &cfg, &rcfg, &Injector::disabled()).unwrap();
    let ref_params = params_of(&reference);

    for crash_after in 1..=cfg.epochs as u64 {
        let dir = tmp_dir(&format!("resume-crash-{crash_after}"));
        let rcfg = ResumableTrainConfig::new(dir, 1);
        let mut crashed = SceneRec::new(mcfg.clone(), &data);
        let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
            "train/epoch",
            Trigger::Nth(crash_after),
            Fault::Panic,
        ));
        match train_resumable(&mut crashed, &data, &cfg, &rcfg, &inj) {
            Err(TrainRunError::Interrupted { epoch }) => {
                assert_eq!(epoch as u64, crash_after - 1)
            }
            other => panic!("expected an injected crash, got {other:?}"),
        }
        // Second invocation resumes from the checkpoint and finishes.
        let mut resumed = SceneRec::new(mcfg.clone(), &data);
        let report = train_resumable(&mut resumed, &data, &cfg, &rcfg, &Injector::disabled())
            .expect("resume completes");
        assert_eq!(
            params_of(&resumed),
            ref_params,
            "crash after epoch {crash_after} diverged"
        );
        assert_eq!(report.epochs, ref_report.epochs);
    }
}

/// Checkpoint saves failing mid-run must not kill training: the run
/// completes, and its numbers match a run that checkpointed cleanly.
#[test]
fn checkpoint_outage_during_training_is_survivable() {
    let (data, mcfg, cfg) = tiny_setup();

    let mut clean = SceneRec::new(mcfg.clone(), &data);
    let rcfg = ResumableTrainConfig::new(tmp_dir("ckpt-outage-clean"), 1);
    let clean_report =
        train_resumable(&mut clean, &data, &cfg, &rcfg, &Injector::disabled()).unwrap();

    let mut starved = SceneRec::new(mcfg, &data);
    let rcfg = ResumableTrainConfig::new(tmp_dir("ckpt-outage-starved"), 1);
    let inj = Injector::new(FaultPlan::new(chaos_seed()).inject(
        "checkpoint/write",
        Trigger::Always,
        Fault::Io,
    ));
    let report = train_resumable(&mut starved, &data, &cfg, &rcfg, &inj)
        .expect("save failures must not abort training");
    assert_eq!(report.epochs, clean_report.epochs);
    assert!(inj.injected() >= 1, "the outage plan never fired");
    assert_eq!(params_of(&starved), params_of(&clean));
}
