//! `serve-hot`: a laptop-scale seeded SceneRec in a 4-shard
//! `ShardedEngine`, warmed in set-up. Rounds of a seeded Zipf(1.1) /
//! Pareto(1.3) open-loop trace (k = 10) are replayed through
//! `replay_sharded_bounded` under the default admission plan; between
//! rounds, `mark_seen` writes on hot users evict their entries, so
//! evictions and re-scores sit next to the reads. Nearly every request
//! is a cache hit and misses score only 1,500 items, so the cache
//! probe, shard merge, scheduler, admission and metrics dominate.

use crate::common::{self, EndToEnd, Layers, RunConfig, ServeCounters, Size};
use crate::inputs::{self, HotTraffic};
use crate::measure::{median, quantile_counts, secs_since, Digest, Recorder};
use crate::probes::{self, ProbeSizes, ProbeTarget};
use crate::report::{Accounting, Outcome};
use scenerec_core::PairwiseModel;
use scenerec_data::Scale;
use scenerec_serve::{
    replay_bounded, replay_sharded_bounded, responses_to_json, AdmissionConfig,
    BoundedReplayConfig, EngineConfig, FrozenEngine, ReplayConfig, ShardReplayConfig,
    ShardedConfig, ShardedEngine,
};
use std::collections::BTreeMap;
use std::time::Instant;

const K: usize = 10;
const SHARDS: usize = 4;

struct Sizes {
    scale: Scale,
    setup_reps: usize,
    traffic: HotTraffic,
    writes: usize,
    digest_rounds: u64,
    probes: ProbeSizes,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            scale: Scale::Laptop,
            setup_reps: 15,
            traffic: HotTraffic {
                requests: 4096,
                k: K,
                load: 0.5,
            },
            writes: 8,
            digest_rounds: 3,
            probes: ProbeSizes {
                core_pairs: 200,
                train_examples: 400,
                eval_users: 300,
                miss_users: 64,
                hit_users: 64,
                hit_repeats: 8,
                writes: 64,
                plans: 16,
                counter_spans: 200,
            },
        },
        Size::Smoke => Sizes {
            scale: Scale::Tiny,
            setup_reps: 2,
            traffic: HotTraffic {
                requests: 256,
                k: K,
                load: 0.5,
            },
            writes: 2,
            digest_rounds: 2,
            probes: ProbeSizes {
                core_pairs: 4,
                train_examples: 4,
                eval_users: 4,
                miss_users: 3,
                hit_users: 3,
                hit_repeats: 2,
                writes: 2,
                plans: 2,
                counter_spans: 4,
            },
        },
    }
}

/// The engines a run serves from, and the writes applied so far.
struct Engines {
    sharded: ShardedEngine,
    /// A single engine given the same writes: the byte-parity oracle.
    single: FrozenEngine,
    seen: Vec<Vec<u32>>,
}

/// One timed round loop.
struct Served {
    round_rates: Vec<f64>,
    replay_s: f64,
    accounting: Accounting,
    /// Whether every response was ok or a typed overload (shed).
    answered: bool,
    digest: String,
    shard_hits: u64,
    shard_misses: u64,
    admitted: u64,
    offered: u64,
    shed: u64,
    /// Planned queue delay (ticks) → admitted requests.
    delays: BTreeMap<u64, u64>,
    parity: bool,
    parity_rounds: usize,
}

fn shard_stats(e: &ShardedEngine) -> Result<(u64, u64), String> {
    let mut total = (0, 0);
    for s in 0..e.num_shards() {
        let (h, m) = e.shard_cache_stats(s).map_err(|e| e.to_string())?;
        total.0 += h;
        total.1 += m;
    }
    Ok(total)
}

/// Replays rounds `first_round..` until `seconds` have been measured
/// (and at least `digest_rounds` rounds ran). Each round: writes (timed
/// with the round), then the bounded sharded replay. The first
/// `digest_rounds` rounds and the last one are re-served by the single
/// engine and must match byte for byte (untimed).
fn serve(
    e: &mut Engines,
    sz: &Sizes,
    workers: usize,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<Served, String> {
    let shard_cfg = ShardReplayConfig {
        workers,
        ..ShardReplayConfig::default()
    };
    let admission = AdmissionConfig::default();
    let single_cfg = BoundedReplayConfig {
        replay: ReplayConfig {
            workers,
            ..ReplayConfig::default()
        },
        admission: admission.clone(),
    };
    let num_users = e.sharded.num_users() as u32;
    let num_items = e.sharded.num_items() as u32;
    let (hits0, misses0) = shard_stats(&e.sharded)?;
    let mut s = Served {
        round_rates: Vec::new(),
        replay_s: 0.0,
        accounting: Accounting::default(),
        answered: true,
        digest: String::new(),
        shard_hits: 0,
        shard_misses: 0,
        admitted: 0,
        offered: 0,
        shed: 0,
        delays: BTreeMap::new(),
        parity: true,
        parity_rounds: 0,
    };
    let mut digest = Digest::default();
    let mut round = 0u64;
    loop {
        let last = round >= sz.digest_rounds && s.replay_s >= seconds;
        let trace = inputs::hot_round(num_users, sz.traffic, seed, round);
        let writes = inputs::hot_writes(&trace, &e.seen, num_items, sz.writes, seed, round);
        let root = rec.begin("round");
        let t = Instant::now();
        for &(u, i) in &writes {
            rec.span("serve.mark_seen", || e.sharded.mark_seen(u, i))
                .map_err(|e| e.to_string())?;
        }
        let (responses, plan) = rec.span("serve.replay", || {
            replay_sharded_bounded(&e.sharded, &trace, &shard_cfg, &admission)
        });
        let dt = secs_since(t);
        rec.end(root);
        rec.finish();
        for &(u, i) in &writes {
            e.single.mark_seen(u, i).map_err(|e| e.to_string())?;
            e.seen[u as usize].push(i);
        }
        let ok = responses.iter().filter(|r| r.outcome() == "ok").count();
        s.round_rates.push(ok as f64 / dt);
        s.replay_s += dt;
        s.admitted += plan.admitted() as u64;
        s.offered += plan.offered() as u64;
        s.shed += plan.shed() as u64;
        for d in plan.queue_delays() {
            *s.delays.entry(d).or_insert(0) += 1;
        }
        if round < sz.digest_rounds || last {
            let bytes = responses_to_json(&responses);
            if round < sz.digest_rounds {
                digest.write(bytes.as_bytes());
            }
            let (single, _) = replay_bounded(&e.single, &trace, &single_cfg);
            s.parity &= responses_to_json(&single) == bytes;
            s.parity_rounds += 1;
        }
        s.accounting.add_responses(&responses);
        s.answered &= responses
            .iter()
            .all(|r| matches!(r.outcome(), "ok" | "overloaded"));
        round += 1;
        if last {
            break;
        }
    }
    let (hits, misses) = shard_stats(&e.sharded)?;
    s.shard_hits = hits - hits0;
    s.shard_misses = misses - misses0;
    s.digest = digest.hex();
    Ok(s)
}

/// Freezes the model and builds the 4-shard engine, spanned as
/// `core.freeze` and `serve.engine_build`, plus the single engine that
/// is the parity reference of the sharded replies. Every user's top-10
/// is requested once on the sharded engine so serving starts warm.
fn build(
    model: &scenerec_core::SceneRec,
    seen: &[Vec<u32>],
    rec: &mut Recorder,
) -> Result<Engines, String> {
    let frozen = rec
        .span("core.freeze", || model.freeze())
        .ok_or("SceneRec refused to freeze")?;
    let sharded = rec
        .span("serve.engine_build", || {
            ShardedEngine::new(
                frozen,
                seen,
                ShardedConfig {
                    shards: SHARDS,
                    engine: EngineConfig::default(),
                },
            )
        })
        .map_err(|e| e.to_string())?;
    let single = FrozenEngine::new(common::snapshot(model)?, seen, EngineConfig::default())
        .map_err(|e| e.to_string())?;
    for u in 0..sharded.num_users() as u32 {
        sharded.top_k(u, K).map_err(|e| e.to_string())?;
    }
    Ok(Engines {
        sharded,
        single,
        seen: seen.to_vec(),
    })
}

/// Runs the workload.
///
/// # Errors
/// On generator, freeze or engine failures.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let sz = sizes(cfg.size);
    let workers = common::REPLAY_WORKERS;
    let hc = common::harness(sz.scale, cfg.seed);
    let mut out = Outcome::default();
    common::host_labels(&mut out)?;
    out.label("scale", format!("{:?}", sz.scale));
    out.label("precision", "f32");
    out.label("shards", SHARDS);
    out.label("round_requests", sz.traffic.requests);
    out.label("load_per_tick", sz.traffic.load);
    out.label("writes_per_round", sz.writes);

    let gen_cfg = inputs::electronics(sz.scale);
    let mut setup = common::set_up(
        &gen_cfg,
        &common::scenerec_config(&hc),
        sz.setup_reps,
        &mut Recorder::new(false),
    )?;
    let seen = inputs::seen_lists(&setup.data);
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut engines = build(&setup.model, &seen, &mut Recorder::new(false))?;
    let plain = serve(
        &mut engines,
        &sz,
        workers,
        cfg.seed,
        budget,
        &mut Recorder::new(false),
    )?;
    out.digest = plain.digest.clone();
    check_served(&mut out, &plain);
    out.accounting = plain.accounting;
    let throughput = plain.accounting.ok as f64 / plain.replay_s;
    let probes_total = (plain.shard_hits + plain.shard_misses) as f64;
    out.label("rounds", plain.round_rates.len());
    out.label(
        "round_rate_quartiles",
        common::quartiles(&plain.round_rates),
    );
    out.label(
        "shard_hit_share",
        plain.shard_hits as f64 / probes_total.max(1.0),
    );
    out.label(
        "shard_miss_share",
        plain.shard_misses as f64 / probes_total.max(1.0),
    );
    out.label(
        "request_miss_share_max",
        plain.shard_misses as f64 / plain.admitted.max(1) as f64,
    );

    if !cfg.trace {
        common::report_end_to_end(
            &mut out,
            &EndToEnd {
                setup_s: median(&setup.setup_s),
                throughput_per_s: throughput,
            },
        )?;
        return Ok(out);
    }

    let mut rec = Recorder::new(true);
    let traced_setup = common::set_up(&gen_cfg, &common::scenerec_config(&hc), 1, &mut rec)?;
    drop(traced_setup);
    let root = rec.begin("freeze");
    let mut traced_engines = build(&setup.model, &seen, &mut rec)?;
    rec.end(root);
    rec.finish();
    let traced = serve(
        &mut traced_engines,
        &sz,
        workers,
        cfg.seed,
        budget,
        &mut rec,
    )?;
    check_served(&mut out, &traced);
    out.check(
        "traced_digest_matches",
        traced.digest == plain.digest,
        format!("untraced {} traced {}", plain.digest, traced.digest),
    );
    let main = rec.profile().clone();

    let tc = common::epoch_config(&hc, 0);
    let frozen = common::snapshot(&setup.model)?;
    let report = probes::run_probes(
        ProbeTarget {
            model: &mut setup.model,
            data: &mut setup.data,
            tc: &tc,
            frozen: &frozen,
            engine: &traced_engines.single,
            sharded: Some(&mut traced_engines.sharded),
            seen: &traced_engines.seen,
            seed: cfg.seed,
            k: K,
        },
        &sz.probes,
        &mut rec,
    )?;
    out.check(
        "probe_miss_rebuild",
        report.miss_matched,
        "top_k == select(score_items)",
    );
    out.check(
        "probe_hit_merge",
        report.hit_matched,
        "sharded top_k == merge(partials)",
    );
    let p = rec.profile();
    let hit_s = p.self_ns_per_call("serve.top_k_hit").unwrap_or(0.0) / 1e9;
    let refill_s = p.self_ns_per_call("serve.refill_miss").unwrap_or(0.0) / 1e9;
    let admitted = traced.admitted as f64;
    let refills = (traced.shard_misses as f64).min(admitted);
    let layers = Layers {
        main,
        all: p.clone(),
        tape_nodes: report.tape.nodes as f64 / report.tape.examples.max(1) as f64,
        generate_s: median(&setup.generate_s),
        init_s: median(&setup.init_s),
        candidates_per_miss: report.candidates_per_miss,
        head_flops_per_item: common::head_flops_per_item(&frozen),
        item_bytes_per_miss: common::item_bytes_per_miss(&frozen, report.candidates_per_miss),
        serve: ServeCounters {
            hits: traced.shard_hits as f64,
            misses: traced.shard_misses as f64,
            replay_s: traced.replay_s,
            workers: workers as f64,
            useful_s: (admitted - refills) * hit_s + refills * refill_s,
            shed_ratio: traced.shed as f64 / traced.offered.max(1) as f64,
            queue_delay_p99_ticks: quantile_counts(&traced.delays, 0.99) as f64,
            probes_per_request: (traced.shard_hits + traced.shard_misses) as f64
                / admitted.max(1.0),
        },
        admission_requests: report.admission_requests,
        counter_incs: probes::COUNTER_INCS as f64,
        untraced_s: 1.0 / throughput,
        traced_s: traced.replay_s / traced.accounting.ok as f64,
    };
    common::write_trace(cfg, &rec, &mut out)?;
    common::report_layers(&mut out, &layers);
    Ok(out)
}

fn check_served(out: &mut Outcome, s: &Served) {
    // Shed requests are counted as failures, not as wrong output.
    out.check(
        "responses_ok",
        s.answered,
        format!("{} responses, {} shed", s.accounting.attempted, s.shed),
    );
    out.check(
        "sharded_equals_single",
        s.parity,
        format!(
            "{} rounds byte-identical to a single FrozenEngine replay",
            s.parity_rounds
        ),
    );
}
