//! Clocks, robust summaries, process memory, metric records, and the
//! benchmark's own span recorder.
//!
//! Every span is recorded here, in the benchmark, around a call into a
//! public function of the program; the program itself is never
//! instrumented for the benchmark. Finished traces are folded into a
//! [`Profile`] of per-name call counts, total time and self time, so a
//! long traced run keeps only a bounded sample of raw spans for the
//! Chrome trace export.

use scenerec_obs::{chrome_trace_json, SpanId, Trace, TraceData};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times one call, returning its result and its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs_since(t))
}

/// Median of `xs` (mean of the middle pair for even lengths); `NaN`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of integer samples held as
/// value → count; 0 when empty.
pub fn quantile_counts(counts: &BTreeMap<u64, u64>, q: f64) -> u64 {
    let total: u64 = counts.values().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (&value, &n) in counts {
        seen += n;
        if seen >= rank {
            return value;
        }
    }
    0
}

/// Hardware threads available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process in MB (`VmHWM`, Linux).
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Host-wide CPU time counters (all CPUs, clock ticks): (steal, total).
/// Steal is time the hypervisor ran something else on this guest's
/// vCPUs.
///
/// # Errors
/// When `/proc/stat` is unreadable or malformed.
pub fn host_cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = *fields.get(7).ok_or("/proc/stat lacks steal time")?;
    Ok((steal, fields.iter().sum()))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (letters, digits, `_`, `.`, `-`; starts alphanumeric).
    pub name: String,
    /// Unit (`s`, `ms`, `us`, `ns`, `1/s`, `MB`, `count`, `ratio`, ...).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Whether `name` is a legal metric name: 1–64 characters of letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1–16 characters of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn is_valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Call count, total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Spans folded.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by direct children.
    pub self_ns: u64,
}

/// Per-name aggregation of finished traces.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Aggregates keyed by span name.
    pub by_name: BTreeMap<String, SpanAgg>,
}

impl Profile {
    /// Folds one finished trace: a span's self time is its duration
    /// minus the summed durations of its direct children.
    pub fn fold(&mut self, trace: &TraceData) {
        let mut child_ns = vec![0u64; trace.spans.len()];
        for s in &trace.spans {
            if let Some(p) = s.parent {
                if let Some(slot) = child_ns.get_mut(p as usize) {
                    *slot += s.duration_ns();
                }
            }
        }
        for (s, covered) in trace.spans.iter().zip(child_ns) {
            let agg = self.by_name.entry(s.name.clone()).or_default();
            agg.count += 1;
            agg.total_ns += s.duration_ns();
            agg.self_ns += s.duration_ns().saturating_sub(covered);
        }
    }

    /// Mean self time per call of `name` in nanoseconds, when recorded.
    pub fn self_ns_per_call(&self, name: &str) -> Option<f64> {
        self.by_name
            .get(name)
            .filter(|a| a.count > 0)
            .map(|a| a.self_ns as f64 / a.count as f64)
    }

    /// Summed duration of every span named `name` (0 when none ran).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |a| a.total_ns)
    }

    /// Summed self time of every span whose name starts with `prefix`.
    pub fn self_ns_with_prefix(&self, prefix: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    /// Summed self time of every span: the traced wall time.
    pub fn total_self_ns(&self) -> u64 {
        self.by_name.values().map(|a| a.self_ns).sum()
    }
}

/// Spans kept per trace for the Chrome export.
const EXPORT_SPANS_PER_TRACE: usize = 400;
/// Traces kept per root-span name for the Chrome export.
const EXPORT_TRACES_PER_ROOT: usize = 4;

/// The benchmark's span recorder. Disabled, every call is a no-op and
/// costs one branch, so untraced runs share the traced code paths.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    current: Option<Trace>,
    next_id: u64,
    profile: Profile,
    exported: Vec<TraceData>,
    exported_per_root: BTreeMap<String, usize>,
}

impl Recorder {
    /// A recorder that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            ..Recorder::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Finishes the current trace (if any) and opens a new one rooted
    /// at a span named `root`.
    pub fn begin(&mut self, root: &str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.finish();
        let mut t = Trace::new(self.next_id);
        self.next_id += 1;
        let s = t.start_span(root);
        self.current = Some(t);
        Some(s)
    }

    /// Opens a child span of the innermost open span.
    pub fn start(&mut self, name: &str) -> Option<SpanId> {
        self.current.as_mut().map(|t| t.start_span(name))
    }

    /// Closes a span opened by [`Self::start`] or [`Self::begin`].
    pub fn end(&mut self, span: Option<SpanId>) {
        if let (Some(t), Some(s)) = (self.current.as_mut(), span) {
            t.end_span(s);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let s = self.start(name);
        let r = f();
        self.end(s);
        r
    }

    /// Finishes the current trace and folds it into the profile.
    pub fn finish(&mut self) {
        if let Some(t) = self.current.take() {
            let data = t.finish();
            self.profile.fold(&data);
            let root = data.root().map(|r| r.name.clone()).unwrap_or_default();
            let kept = self.exported_per_root.entry(root).or_default();
            if *kept < EXPORT_TRACES_PER_ROOT {
                *kept += 1;
                let mut sample = data;
                sample.spans.truncate(EXPORT_SPANS_PER_TRACE);
                self.exported.push(sample);
            }
        }
    }

    /// The folded profile of every finished trace.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Chrome trace-event JSON of the exported sample: the first few
    /// traces of each root name, each cut to its first spans.
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.exported)
    }
}

/// FNV-1a 64-bit digest over response or loss bytes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far, as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: BTreeMap<u64, u64> = (1..=100).map(|v| (v, 1)).collect();
        assert_eq!(quantile_counts(&xs, 0.99), 99);
        assert_eq!(quantile_counts(&xs, 1.0), 100);
        assert_eq!(quantile_counts(&BTreeMap::from([(0, 98), (7, 2)]), 0.99), 7);
        assert_eq!(quantile_counts(&BTreeMap::new(), 0.5), 0);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Recorder::new(true);
        let root = rec.begin("root");
        rec.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        rec.finish();
        let p = rec.profile();
        let root = p.by_name["root"];
        let child = p.by_name["child"];
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert!(child.self_ns >= 2_000_000);
        assert_eq!(p.total_self_ns(), root.total_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert!(rec.begin("root").is_none());
        assert_eq!(rec.span("x", || 7), 7);
        rec.finish();
        assert!(rec.profile().by_name.is_empty());
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        assert!(is_valid_name("serve.top_k_hit_us"));
        assert!(is_valid_name("self_pct.core"));
        assert!(!is_valid_name("_leading"));
        assert!(!is_valid_name("has space"));
        assert!(!is_valid_name(&"x".repeat(65)));
        assert!(is_valid_unit("1/s"));
        assert!(is_valid_unit("%"));
        assert!(!is_valid_unit("m s"));
    }
}
