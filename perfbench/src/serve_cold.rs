//! `serve-cold`: Electronics at paper scale (4,000 users × 50,000
//! items) with a seeded, untrained SceneRec frozen at f32 with its MLP
//! head. Rounds of distinct users (k = 10) are replayed through
//! `replay` on a `FrozenEngine` until the time budget is spent; every
//! request is a true cache miss, so candidate masking, head scoring and
//! top-k selection dominate.

use crate::common::{self, EndToEnd, Layers, RunConfig, ServeCounters, Size};
use crate::inputs;
use crate::measure::{median, timed, Digest, Recorder};
use crate::probes::{self, ProbeSizes, ProbeTarget};
use crate::report::{Accounting, Outcome};
use scenerec_core::top_k_unseen;
use scenerec_data::Scale;
use scenerec_graph::UserId;
use scenerec_serve::{replay, responses_to_json, FrozenEngine, ReplayConfig, Response};

const K: usize = 10;
/// Micro-batch size of the replay.
const MAX_BATCH: usize = 32;

struct Sizes {
    scale: Scale,
    setup_reps: usize,
    round: usize,
    digest_rounds: usize,
    parity_users: usize,
    probes: ProbeSizes,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            scale: Scale::Paper,
            setup_reps: 3,
            round: 64,
            digest_rounds: 2,
            parity_users: 2,
            probes: ProbeSizes {
                core_pairs: 64,
                train_examples: 64,
                eval_users: 32,
                miss_users: 12,
                hit_users: 12,
                hit_repeats: 16,
                writes: 12,
                plans: 16,
                counter_spans: 200,
            },
        },
        Size::Smoke => Sizes {
            scale: Scale::Tiny,
            setup_reps: 1,
            round: 8,
            digest_rounds: 2,
            parity_users: 2,
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

/// One timed replay loop.
struct Served {
    round_rates: Vec<f64>,
    replay_s: f64,
    accounting: Accounting,
    /// Whether every response was ok.
    all_ok: bool,
    /// The first round's responses (for the tape parity check).
    first: Vec<Response>,
    digest: String,
    hits: u64,
    misses: u64,
}

/// Replays rounds of distinct users until `seconds` have been measured
/// (and at least `digest_rounds` rounds ran). Users come from a seeded
/// permutation; should it wrap, the cache is cleared between rounds so
/// every request stays a miss.
fn serve(
    engine: &FrozenEngine,
    order: &[u32],
    sz: &Sizes,
    workers: usize,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<Served, String> {
    let cfg = ReplayConfig {
        workers,
        max_batch: MAX_BATCH,
        ..ReplayConfig::default()
    };
    let (hits0, misses0) = engine.cache_stats();
    let mut digest = Digest::default();
    let (mut round_rates, mut replay_s) = (Vec::new(), 0.0);
    let (mut accounting, mut all_ok, mut first) = (Accounting::default(), true, Vec::new());
    let mut next = 0usize;
    let mut round = 0;
    while round < sz.digest_rounds || replay_s < seconds {
        if next + sz.round > order.len() {
            engine.clear_cache();
            next = 0;
        }
        let requests = inputs::requests(&order[next..next + sz.round], K);
        next += sz.round;
        let root = rec.begin("round");
        let (served, dt) = timed(|| rec.span("serve.replay", || replay(engine, &requests, &cfg)));
        rec.end(root);
        rec.finish();
        let ok = served.iter().filter(|r| r.outcome() == "ok").count();
        round_rates.push(ok as f64 / dt);
        replay_s += dt;
        if round < sz.digest_rounds {
            digest.write(responses_to_json(&served).as_bytes());
        }
        accounting.add_responses(&served);
        all_ok &= ok == served.len();
        if round == 0 {
            first = served;
        }
        round += 1;
    }
    let (hits, misses) = engine.cache_stats();
    Ok(Served {
        round_rates,
        replay_s,
        accounting,
        all_ok,
        first,
        digest: digest.hex(),
        hits: hits - hits0,
        misses: misses - misses0,
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
    out.label("shards", 1);
    out.label("max_batch", MAX_BATCH);
    out.label("round_requests", sz.round);

    let gen_cfg = inputs::electronics(sz.scale);
    let mut setup = common::set_up(
        &gen_cfg,
        &common::scenerec_config(&hc),
        sz.setup_reps,
        &mut Recorder::new(false),
    )?;
    let seen = inputs::seen_lists(&setup.data);
    let engine = common::freeze_engine(&setup.model, &seen, &mut Recorder::new(false))?;
    out.label("items", engine.num_items());
    out.label("users", engine.num_users());
    let order = inputs::user_permutation(setup.data.num_users(), cfg.seed);

    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = serve(
        &engine,
        &order,
        &sz,
        workers,
        budget,
        &mut Recorder::new(false),
    )?;
    out.accounting = plain.accounting;
    out.digest = plain.digest.clone();
    check_served(&mut out, &plain);
    // Engine == tape on a few served users, untimed.
    let parity_users: Vec<&Response> = plain.first.iter().take(sz.parity_users).collect();
    let parity = parity_users.iter().all(|r| {
        let tape = top_k_unseen(&setup.model, &setup.data, UserId(r.user), K);
        probes::same_recs(&r.recs, &tape)
    });
    out.check(
        "engine_equals_tape",
        parity,
        format!("{} sampled responses == top_k_unseen", parity_users.len()),
    );
    let throughput = plain.accounting.ok as f64 / plain.replay_s;
    out.label("rounds", plain.round_rates.len());
    out.label(
        "round_rate_quartiles",
        common::quartiles(&plain.round_rates),
    );
    out.label(
        "miss_share",
        plain.misses as f64 / plain.accounting.attempted.max(1) as f64,
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
    // The traced main run: set-up, freeze and the replay loop again,
    // spanned. It serves the same seeded rounds, so its first rounds
    // must reproduce the untraced bytes.
    let traced_setup = common::set_up(&gen_cfg, &common::scenerec_config(&hc), 1, &mut rec)?;
    drop(traced_setup);
    let root = rec.begin("freeze");
    let traced_engine = common::freeze_engine(&setup.model, &seen, &mut rec)?;
    rec.end(root);
    rec.finish();
    let traced = serve(&traced_engine, &order, &sz, workers, budget, &mut rec)?;
    drop(traced_engine);
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
            engine: &engine,
            sharded: None,
            seen: &seen,
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
    let miss_s = rec
        .profile()
        .self_ns_per_call("serve.top_k_miss")
        .unwrap_or(0.0)
        / 1e9;
    let requests = traced.accounting.attempted as f64;
    let layers = Layers {
        main,
        all: rec.profile().clone(),
        tape_nodes: report.tape.nodes as f64 / report.tape.examples.max(1) as f64,
        generate_s: median(&setup.generate_s),
        init_s: median(&setup.init_s),
        candidates_per_miss: report.candidates_per_miss,
        head_flops_per_item: common::head_flops_per_item(&frozen),
        item_bytes_per_miss: common::item_bytes_per_miss(&frozen, report.candidates_per_miss),
        serve: ServeCounters {
            hits: traced.hits as f64,
            misses: traced.misses as f64,
            replay_s: traced.replay_s,
            workers: workers as f64,
            useful_s: requests * miss_s,
            shed_ratio: 0.0,
            queue_delay_p99_ticks: 0.0,
            probes_per_request: 1.0,
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
    let n = s.accounting.attempted;
    out.check("responses_ok", s.all_ok, format!("{n} responses"));
    out.check(
        "every_request_missed",
        s.hits == 0 && s.misses == n,
        format!("hits {} misses {} requests {n}", s.hits, s.misses),
    );
}
