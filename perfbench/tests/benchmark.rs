//! Tests of the benchmark itself: a reduced-size smoke of every
//! workload in both modes, the metric contract against
//! `BENCHMARK.json`, and seed determinism of the generated inputs.

use scenerec_perfbench::common::{self, check_workers};
use scenerec_perfbench::inputs::{self, HotTraffic};
use scenerec_perfbench::measure::{is_valid_name, is_valid_unit};
use scenerec_perfbench::{parse_args, run, RunConfig, Size, Workload};
use serde_json::Value;

fn smoke(workload: Workload, seed: u64, trace: bool) -> scenerec_perfbench::Outcome {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-traces");
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.05,
        trace,
        size: Size::Smoke,
        trace_out: Some(dir.join(format!("{}-{seed}-{trace}.json", workload.name()))),
    };
    run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc: Value = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(o: &scenerec_perfbench::Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_smokes_and_reports_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let o = smoke(workload, 5, trace);
            let failed: Vec<_> = o.checks.iter().filter(|c| !c.passed).collect();
            assert!(
                failed.is_empty(),
                "{}: failed checks {failed:?}",
                workload.name()
            );
            assert!(o.correct(), "{} trace={trace}", workload.name());
            assert!(o.accounting.attempted > 0);
            assert_eq!(o.accounting.failed(), 0, "{}", workload.name());
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&reported(&o), want, "{} trace={trace}", workload.name());
            if !trace {
                for m in &o.metrics {
                    assert!(
                        m.value > 0.0,
                        "{} {} is {}",
                        workload.name(),
                        m.name,
                        m.value
                    );
                }
            }
        }
    }
}

#[test]
fn declared_metric_names_and_units_are_legal_and_unique() {
    let mut all = declared("end_to_end");
    all.extend(declared("per_layer"));
    for (name, unit) in &all {
        assert!(is_valid_name(name), "bad name {name}");
        assert!(is_valid_unit(unit), "bad unit {unit} of {name}");
    }
    let mut names: Vec<_> = all.iter().map(|(n, _)| n.clone()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names must be unique");
    assert!(all.contains(&("setup_s".to_string(), "s".to_string())));
}

#[test]
fn same_seed_same_inputs_and_bytes_different_seed_different() {
    let shape = HotTraffic {
        requests: 500,
        k: 10,
        load: 0.5,
    };
    assert_eq!(
        inputs::hot_round(300, shape, 7, 0),
        inputs::hot_round(300, shape, 7, 0)
    );
    assert_ne!(
        inputs::hot_round(300, shape, 7, 0),
        inputs::hot_round(300, shape, 8, 0)
    );
    assert_ne!(
        inputs::hot_round(300, shape, 7, 0),
        inputs::hot_round(300, shape, 7, 1)
    );
    assert_eq!(
        inputs::user_permutation(300, 7),
        inputs::user_permutation(300, 7)
    );
    assert_ne!(
        inputs::user_permutation(300, 7),
        inputs::user_permutation(300, 8)
    );
    let seen = vec![Vec::new(); 300];
    let trace = inputs::hot_round(300, shape, 7, 0);
    assert_eq!(
        inputs::hot_writes(&trace, &seen, 1500, 8, 7, 0),
        inputs::hot_writes(&trace, &seen, 1500, 8, 7, 0)
    );
    assert_ne!(
        inputs::hot_writes(&trace, &seen, 1500, 8, 7, 0),
        inputs::hot_writes(&trace, &seen, 1500, 8, 8, 0)
    );
    let scale = scenerec_data::Scale::Tiny;
    assert_ne!(
        common::harness(scale, 7).model_seed,
        common::harness(scale, 8).model_seed
    );
    assert_eq!(inputs::electronics(scale), inputs::electronics(scale));

    for workload in Workload::ALL {
        let a = smoke(workload, 11, false);
        let b = smoke(workload, 11, false);
        let c = smoke(workload, 12, false);
        assert_eq!(
            a.digest,
            b.digest,
            "{}: same seed, same bytes",
            workload.name()
        );
        assert_ne!(
            a.digest,
            c.digest,
            "{}: new seed, new bytes",
            workload.name()
        );
    }
}

#[test]
fn traced_runs_reproduce_the_untraced_bytes() {
    for workload in Workload::ALL {
        let plain = smoke(workload, 13, false);
        let traced = smoke(workload, 13, true);
        assert_eq!(plain.digest, traced.digest, "{}", workload.name());
    }
}

#[test]
fn oversubscription_is_refused() {
    assert!(check_workers(2, 2).is_ok());
    assert!(check_workers(3, 2).is_err());
}

#[test]
fn arguments_parse_and_reject_nonsense() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let cfg = parse_args(&args(
        "--workload serve-hot --seed 3 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(cfg.workload, Workload::ServeHot);
    assert_eq!(cfg.seed, 3);
    assert!(cfg.trace);
    assert_eq!(cfg.size, Size::Full);
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload serve-hot --seed x --seconds 1 --trace 0",
        "--workload serve-hot --seed 1 --seconds 0 --trace 0",
        "--workload serve-hot --seed 1 --seconds 1 --trace 2",
        "--workload serve-hot --seconds 1 --trace 0",
        "--workload serve-hot --seed 1 --seconds 1 --trace 0 --bogus 1",
        "--workload serve-hot --seed 1 --seconds 1 --trace 0 --size smoke",
        "--workload serve-hot --seed",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
    }
}
