//! The metric tables (they must match `BENCHMARK.json`, which `main`
//! checks on start) and the conversion of span totals into per-layer
//! metrics.

use crate::common::Outcome;
use crate::trace::Snapshot;

/// End-to-end metrics, printed on every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, printed on every traced run: `(name, unit)`. A
/// `<span>_ms` metric is the self time of that span per job, summed over
/// the threads that ran it; it reads 0 on a workload that never enters
/// the span.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("depth.funta_ms", "ms"),
    ("depth.dirout_ms", "ms"),
    ("depth.gridded_ms", "ms"),
    ("depth.dirout_useful_ratio", "ratio"),
    ("mfod.nu_tune_ms", "ms"),
    ("mfod.features_ms", "ms"),
    ("mfod.fit_ms", "ms"),
    ("mfod.exact_score_ms", "ms"),
    ("mfod.frozen_build_ms", "ms"),
    ("mfod.frozen_score_ms", "ms"),
    ("detect.iforest_fit_ms", "ms"),
    ("detect.iforest_score_ms", "ms"),
    ("detect.standardize_ms", "ms"),
    ("detect.ocsvm_fit_ms", "ms"),
    ("detect.ocsvm_score_ms", "ms"),
    ("fda.plan_ms", "ms"),
    ("fda.smooth_ms", "ms"),
    ("geometry.map_ms", "ms"),
    ("linalg.submatrix_ms", "ms"),
    ("datasets.generate_ms", "ms"),
    ("datasets.split_ms", "ms"),
    ("eval.auc_ms", "ms"),
    ("eval.repeated_ms", "ms"),
    ("stream.build_ms", "ms"),
    ("stream.push_ms", "ms"),
    ("stream.push_us", "us"),
    ("stream.flush_p50_ms", "ms"),
    ("stream.flush_p99_ms", "ms"),
    ("stream.windows_per_flush", "windows"),
    ("stream.expired_flush_share", "ratio"),
    ("stream.p99_ms", "ms"),
    ("persist.promote_ms", "ms"),
    ("persist.open_ms", "ms"),
    ("persist.install_ms", "ms"),
    ("persist.first_score_ms", "ms"),
    ("par.cpu_util", "ratio"),
    ("par.speedup_1t", "ratio"),
    ("obs.overhead_pct", "%"),
    ("gen.late_max_ms", "ms"),
    ("proc.peak_rss_mb", "MiB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer metric that holds the self time of span `name`.
fn layer_metric(name: &str) -> Result<&'static str, String> {
    PER_LAYER
        .iter()
        .map(|(m, _)| *m)
        .find(|m| m.strip_suffix("_ms") == Some(name))
        .ok_or_else(|| format!("span `{name}` has no per-layer metric"))
}

/// Sets `<span>_ms` for every span recorded in the job phase (self time
/// per job), then for every span recorded only in the set-up phase (self
/// time per set-up). Each phase is `(before, after, count)`.
pub fn set_layer_times(
    out: &mut Outcome,
    jobs: (&Snapshot, &Snapshot, usize),
    setups: (&Snapshot, &Snapshot, usize),
) -> Result<(), String> {
    for (before, after, n) in [jobs, setups] {
        for name in after.names_since(before) {
            let metric = layer_metric(name)?;
            if !out.metrics.contains_key(metric) {
                let ns = after.self_ns_since(before, name) as f64;
                out.set(metric, ns / n.max(1) as f64 / 1e6);
            }
        }
    }
    Ok(())
}
