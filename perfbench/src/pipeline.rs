//! `pipeline-laptop`: Electronics at laptop scale, generated, trained
//! for a fixed epoch budget with the Table 2 settings (validation every
//! epoch, early stopping off), tested, frozen, and served one cold
//! top-10 per user. Data, graph, model, autodiff, trainer and eval do
//! nearly all the work; serving is a small tail.

use crate::common::{self, EndToEnd, Layers, RunConfig, ServeCounters, Size, TapeStats};
use crate::inputs;
use crate::measure::{median, secs_since, timed, Digest, Profile, Recorder};
use crate::probes::{self, ProbeSizes, ProbeTarget};
use crate::report::Outcome;
use scenerec_bench::harness::HarnessConfig;
use scenerec_core::trainer::{
    make_optimizer, test, train_with_optimizer, validate, PhaseBreakdown,
};
use scenerec_core::{top_k_unseen, SceneRec};
use scenerec_data::{Dataset, Scale};
use scenerec_graph::UserId;
use scenerec_serve::{replay, responses_to_json, ReplayConfig};
use std::time::Instant;

/// Top-K of the serving tail and of the parity check.
const K: usize = 10;

struct Sizes {
    scale: Scale,
    epochs: usize,
    setup_reps: usize,
    parity_users: usize,
    probes: ProbeSizes,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            scale: Scale::Laptop,
            epochs: 4,
            setup_reps: 15,
            parity_users: 8,
            probes: ProbeSizes {
                core_pairs: 200,
                train_examples: 0,
                eval_users: 0,
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
            epochs: 1,
            setup_reps: 2,
            parity_users: 3,
            probes: ProbeSizes {
                core_pairs: 8,
                train_examples: 0,
                eval_users: 0,
                miss_users: 4,
                hit_users: 4,
                hit_repeats: 2,
                writes: 4,
                plans: 2,
                counter_spans: 4,
            },
        },
    }
}

/// What one pass of the pipeline produced.
struct Pass {
    pipeline_s: f64,
    train_s: f64,
    epoch_rates: Vec<f64>,
    triples: u64,
    serve_s: f64,
    ndcg10: f32,
    losses: Vec<f32>,
    nonfinite_triples: u64,
    responses: Vec<scenerec_serve::Response>,
    hits: u64,
    misses: u64,
    tape: TapeStats,
    /// The trainer's own phase times, summed over the epochs (untraced
    /// passes only).
    phases: TrainPhases,
    model: SceneRec,
    data: Dataset,
    engine: scenerec_serve::FrozenEngine,
}

/// Nanoseconds per training phase, in the trainer's phase split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct TrainPhases {
    /// Shuffle and negative sampling.
    sample: f64,
    /// Tape construction, loss, and backward.
    forward_backward: f64,
    /// `GradStore::merge`.
    merge: f64,
    /// Clipping and the optimizer step.
    step: f64,
}

impl TrainPhases {
    const NAMES: [&'static str; 4] = ["sample", "forward_backward", "merge", "step"];

    fn values(&self) -> [f64; 4] {
        [self.sample, self.forward_backward, self.merge, self.step]
    }

    fn add_report(&mut self, p: &PhaseBreakdown) {
        self.sample += p.sample_ns as f64;
        self.forward_backward += (p.forward_ns + p.backward_ns) as f64;
        self.merge += p.reduce_ns as f64;
        self.step += p.step_ns as f64;
    }

    /// The same phases summed from the mirror loop's spans.
    fn from_spans(p: &Profile) -> Self {
        let sum = |names: &[&str]| names.iter().map(|n| p.total_ns(n) as f64).sum::<f64>();
        TrainPhases {
            sample: sum(&["bench.sample"]),
            forward_backward: sum(&["core.train_score", "autodiff.loss", "autodiff.backward"]),
            merge: sum(&["autodiff.grad_merge"]),
            step: sum(&["autodiff.clip", "autodiff.optim_step"]),
        }
    }
}

/// Generate → train → test → freeze → one top-10 per user. Untraced it
/// trains through `trainer::train_with_optimizer`; traced it runs the
/// spanned mirror of the same loop.
fn pass(sz: &Sizes, epochs: usize, hc: &HarnessConfig, rec: &mut Recorder) -> Result<Pass, String> {
    let start = Instant::now();
    let gen_cfg = inputs::electronics(sz.scale);
    let setup = common::set_up(&gen_cfg, &common::scenerec_config(hc), 1, rec)?;
    let (data, mut model) = (setup.data, setup.model);

    let mut opt = make_optimizer(&common::epoch_config(hc, 0));
    let known = common::known_positives(&data);
    let mut tape = TapeStats::default();
    let (mut epoch_rates, mut losses) = (Vec::new(), Vec::new());
    let triples_per_epoch = data.split.train.len() as u64;
    let mut nonfinite_triples = 0;
    let seen = inputs::seen_lists(&data);
    let mut train_s = 0.0;
    let mut phases = TrainPhases::default();
    for epoch in 0..epochs {
        let tc = common::epoch_config(hc, epoch);
        let t = Instant::now();
        let loss = if rec.enabled() {
            let loss = common::mirror_epoch(
                &mut model,
                &data,
                &tc,
                opt.as_mut(),
                &known,
                None,
                rec,
                &mut tape,
            );
            let root = rec.begin("epoch.validate");
            rec.span("eval.validate", || validate(&model, &data, &tc));
            rec.end(root);
            rec.finish();
            loss
        } else {
            let report = train_with_optimizer(&mut model, &data, &tc, opt.as_mut());
            phases.add_report(&report.phases);
            report.final_loss()
        };
        let epoch_s = secs_since(t);
        train_s += epoch_s;
        epoch_rates.push(triples_per_epoch as f64 / epoch_s);
        if !loss.is_finite() {
            nonfinite_triples += triples_per_epoch;
        }
        losses.push(loss);
    }

    let root = rec.begin("tail");
    let tc = common::epoch_config(hc, 0);
    let ndcg10 = rec
        .span("eval.test", || test(&model, &data, &tc))
        .metrics
        .ndcg;
    let engine = common::freeze_engine(&model, &seen, rec)?;
    let users: Vec<u32> = (0..data.num_users()).collect();
    let requests = inputs::requests(&users, K);
    let replay_cfg = ReplayConfig {
        workers: common::REPLAY_WORKERS,
        max_batch: 32,
        ..ReplayConfig::default()
    };
    let (before_hits, before_misses) = engine.cache_stats();
    let (responses, serve_s) =
        timed(|| rec.span("serve.replay", || replay(&engine, &requests, &replay_cfg)));
    let (hits, misses) = engine.cache_stats();
    rec.end(root);
    rec.finish();
    Ok(Pass {
        pipeline_s: secs_since(start),
        train_s,
        epoch_rates,
        triples: triples_per_epoch * epochs as u64,
        serve_s,
        ndcg10,
        losses,
        nonfinite_triples,
        responses,
        hits: hits - before_hits,
        misses: misses - before_misses,
        tape,
        phases,
        model,
        data,
        engine,
    })
}

fn digest(p: &Pass) -> String {
    let mut d = Digest::default();
    for l in &p.losses {
        d.write(&l.to_bits().to_le_bytes());
    }
    d.write(&p.ndcg10.to_bits().to_le_bytes());
    d.write(responses_to_json(&p.responses).as_bytes());
    d.hex()
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
    out.label("epochs", sz.epochs);
    out.label("batch_size", hc.batch_size);
    out.label("precision", "f32");
    out.label("shards", 1);

    let gen_cfg = inputs::electronics(sz.scale);
    let setup = common::set_up(
        &gen_cfg,
        &common::scenerec_config(&hc),
        sz.setup_reps,
        &mut Recorder::new(false),
    )?;
    out.check(
        "setup_deterministic",
        setup.deterministic,
        format!("{} set-up reps generated one dataset", sz.setup_reps),
    );
    let untrained = test(&setup.model, &setup.data, &common::epoch_config(&hc, 0));
    // Each pass generates its own dataset and model; releasing the
    // set-up's keeps peak memory the workload's own.
    drop(setup.model);
    drop(setup.data);

    // A traced run measures its tracing overhead against a two-epoch
    // untraced reference, comparing per-triple training time.
    let plain_epochs = if cfg.trace {
        sz.epochs.min(2)
    } else {
        sz.epochs
    };
    let plain = pass(&sz, plain_epochs, &hc, &mut Recorder::new(false))?;
    check_pass(&mut out, &plain, &sz, untrained.metrics.ndcg, cfg.seed);
    out.digest = digest(&plain);
    account(&mut out, &plain);
    out.label("untrained_ndcg10", untrained.metrics.ndcg);

    if !cfg.trace {
        pass_labels(&mut out, &plain);
        common::report_end_to_end(
            &mut out,
            &EndToEnd {
                setup_s: median(&setup.setup_s),
                throughput_per_s: plain.triples as f64 / plain.train_s,
            },
        )?;
        return Ok(out);
    }

    let mut rec = Recorder::new(true);
    let mut traced = pass(&sz, sz.epochs, &hc, &mut rec)?;
    pass_labels(&mut out, &traced);
    out.digest = digest(&traced);
    out.check(
        "mirror_matches_trainer",
        traced.losses[..plain.losses.len()] == plain.losses[..],
        format!(
            "mirror epoch losses {:?} vs trainer {:?}",
            traced.losses, plain.losses
        ),
    );
    check_pass(&mut out, &traced, &sz, untrained.metrics.ndcg, cfg.seed);
    // At smoke size the phases last microseconds, and timing noise
    // rather than the code would decide the ratios.
    if cfg.size == Size::Full {
        check_mirror_phases(&mut out, &plain, &traced, rec.profile());
    }
    let plain_s_per_triple = plain.train_s / plain.triples as f64;
    drop(plain);
    let main = rec.profile().clone();
    let seen = inputs::seen_lists(&traced.data);
    let tc = common::epoch_config(&hc, 0);
    let frozen = common::snapshot(&traced.model)?;
    let report = probes::run_probes(
        ProbeTarget {
            model: &mut traced.model,
            data: &mut traced.data,
            tc: &tc,
            frozen: &frozen,
            engine: &traced.engine,
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
    let requests = traced.responses.len() as f64;
    let miss_s = rec
        .profile()
        .self_ns_per_call("serve.top_k_miss")
        .unwrap_or(0.0)
        / 1e9;
    let layers = Layers {
        main,
        all: rec.profile().clone(),
        tape_nodes: traced.tape.nodes as f64 / traced.tape.examples.max(1) as f64,
        generate_s: median(&setup.generate_s),
        init_s: median(&setup.init_s),
        candidates_per_miss: report.candidates_per_miss,
        head_flops_per_item: common::head_flops_per_item(&frozen),
        item_bytes_per_miss: common::item_bytes_per_miss(&frozen, report.candidates_per_miss),
        serve: ServeCounters {
            hits: traced.hits as f64,
            misses: traced.misses as f64,
            replay_s: traced.serve_s,
            workers: workers as f64,
            useful_s: requests * miss_s,
            shed_ratio: 0.0,
            queue_delay_p99_ticks: 0.0,
            probes_per_request: 1.0,
        },
        admission_requests: report.admission_requests,
        counter_incs: probes::COUNTER_INCS as f64,
        untraced_s: plain_s_per_triple,
        traced_s: traced.train_s / traced.triples as f64,
    };
    common::write_trace(cfg, &rec, &mut out)?;
    common::report_layers(&mut out, &layers);
    Ok(out)
}

/// Quantities of a full-budget pass that are reported but not gated.
fn pass_labels(out: &mut Outcome, p: &Pass) {
    out.label("ndcg10", p.ndcg10);
    out.label("pipeline_s", p.pipeline_s);
    out.label("train_s", p.train_s);
    out.label("epoch_rate_quartiles", common::quartiles(&p.epoch_rates));
    out.label("serve_tail_s", p.serve_s);
    out.label("serve_tail_share_pct", 100.0 * p.serve_s / p.pipeline_s);
}

/// Largest factor by which a mirror phase may differ from the trainer's
/// own timing of it, per triple, before the mirror no longer stands for
/// the trainer's loop. Tracing overhead and host drift stay well inside.
const MIRROR_PHASE_FACTOR: f64 = 2.0;

/// The per-layer training times come from the mirror loop, so its phase
/// times must stay close to those `train_with_optimizer` reports for
/// the same kind of epoch: a trainer change the mirror does not follow
/// fails the run instead of timing the old loop.
fn check_mirror_phases(out: &mut Outcome, plain: &Pass, traced: &Pass, spans: &Profile) {
    let trainer = plain.phases.values().map(|ns| ns / plain.triples as f64);
    let mirror = TrainPhases::from_spans(spans)
        .values()
        .map(|ns| ns / traced.triples as f64);
    let mut held = true;
    let mut detail = Vec::new();
    for ((name, t), m) in TrainPhases::NAMES.iter().zip(trainer).zip(mirror) {
        held &= phase_agrees(m, t);
        out.label(&format!("mirror_over_trainer.{name}"), m / t);
        detail.push(format!(
            "{name}: mirror {m:.0} ns vs trainer {t:.0} ns per triple"
        ));
    }
    out.check("mirror_phases_match_trainer", held, detail.join("; "));
}

/// Whether a mirror phase's time per triple is within
/// [`MIRROR_PHASE_FACTOR`] of the trainer's.
fn phase_agrees(mirror_ns: f64, trainer_ns: f64) -> bool {
    let ratio = mirror_ns / trainer_ns;
    ratio.is_finite() && (1.0 / MIRROR_PHASE_FACTOR..=MIRROR_PHASE_FACTOR).contains(&ratio)
}

fn account(out: &mut Outcome, p: &Pass) {
    out.accounting.add_responses(&p.responses);
    out.accounting.attempted += p.triples;
    out.accounting.ok += p.triples - p.nonfinite_triples;
}

fn check_pass(out: &mut Outcome, p: &Pass, sz: &Sizes, untrained_ndcg: f32, seed: u64) {
    let all_ok = p.responses.iter().all(|r| r.outcome() == "ok");
    out.check(
        "responses_ok",
        all_ok,
        format!("{} top-10 responses", p.responses.len()),
    );
    out.check(
        "cold_tail_all_misses",
        p.hits == 0 && p.misses == p.responses.len() as u64,
        format!("hits {} misses {}", p.hits, p.misses),
    );
    out.check(
        "losses_finite",
        p.nonfinite_triples == 0,
        format!("epoch losses {:?}", p.losses),
    );
    // Declared for the full epoch budget only: the two-epoch overhead
    // reference of a traced run can still sit at the untrained level.
    if p.losses.len() == sz.epochs {
        out.check(
            "training_beats_untrained",
            p.ndcg10 > untrained_ndcg,
            format!("test NDCG@10 {} vs untrained {}", p.ndcg10, untrained_ndcg),
        );
    }
    let users = inputs::sample_users(p.data.num_users(), sz.parity_users, seed, 0);
    let parity = users.iter().all(|&u| {
        let tape = top_k_unseen(&p.model, &p.data, UserId(u), K);
        probes::same_recs(&p.responses[u as usize].recs, &tape)
    });
    out.check(
        "engine_equals_tape",
        parity,
        format!("engine top-{K} == top_k_unseen on {} users", users.len()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_phases_agree_within_a_factor_of_two() {
        assert!(phase_agrees(100.0, 100.0));
        assert!(phase_agrees(190.0, 100.0));
        assert!(phase_agrees(60.0, 100.0));
        assert!(!phase_agrees(250.0, 100.0));
        assert!(!phase_agrees(40.0, 100.0));
        assert!(!phase_agrees(100.0, 0.0));
        assert!(!phase_agrees(f64::NAN, 100.0));
    }
}
