//! # scenerec-perfbench
//!
//! The repository benchmark: three seeded workloads that drive the
//! SceneRec pipeline end to end — generate → train → freeze → serve —
//! and split their time by layer. See `README.md` beside this crate for
//! the command, the workloads and the metric map.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a
//! traced run (`--trace 1`) repeats the workload with the benchmark's
//! own spans around each public call it makes, runs the layer probes,
//! and reports the per-layer metrics. Every run checks its outputs
//! before it reports a number.

pub mod common;
pub mod inputs;
pub mod measure;
pub mod pipeline;
pub mod probes;
pub mod report;
pub mod serve_cold;
pub mod serve_hot;

pub use common::{RunConfig, Size, Workload};
pub use report::Outcome;

/// Runs one workload.
///
/// # Errors
/// When the workload cannot run at all (generator, freeze or engine
/// failures, unreadable process memory); failed output checks are
/// reported in the [`Outcome`] instead.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (steal0, total0) = measure::host_cpu_ticks()?;
    let mut out = match cfg.workload {
        Workload::PipelineLaptop => pipeline::run(cfg),
        Workload::ServeCold => serve_cold::run(cfg),
        Workload::ServeHot => serve_hot::run(cfg),
    }?;
    // On a shared host the hypervisor's steal time is the main source of
    // run-to-run drift; record it so slow runs can be told apart.
    let (steal1, total1) = measure::host_cpu_ticks()?;
    let share = steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
    out.label("host_steal_pct", 100.0 * share);
    Ok(out)
}

/// Parses the command line:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`, plus the
/// optional `--trace-out <path>`. The command line always runs the full
/// sizes; the reduced smoke sizes are for the benchmark's own tests.
///
/// # Errors
/// On unknown, missing or malformed arguments.
pub fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            "--trace-out" => trace_out = Some(std::path::PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: Size::Full,
        trace_out,
    })
}
