//! The metric catalogue (kept equal to `BENCHMARK.json` by the self-test)
//! and the per-run report every workload fills in.

use crate::tracer::Tracer;
use crate::util::{git_revision, nproc, peak_rss_mb};
use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics: every workload reports each of them with tracing
/// off. What "pass" and "step" mean per workload is in `DESIGN.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("step_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Verbs the served mix sends, in report order (`open` is the "other"
/// share: a tenant re-binding to its resident artifact).
pub const VERBS: &[&str] = &["render-slice", "classify", "track", "report-stats", "open"];

/// Per-layer metrics reported by a traced run. A layer a workload does not
/// exercise reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("volume.page_in_ms", "ms"),
    ("volume.hit_ratio", "ratio"),
    ("volume.evictions", "count"),
    ("volume.paged_mb", "MB"),
    ("volume.read_retries", "count"),
    ("volume.read_mb_s", "MB/s"),
    ("volume.decode_mb_s", "MB/s"),
    ("volume.encode_mb_s", "MB/s"),
    ("volume.compress_ratio", "ratio"),
    ("volume.high_water_mb", "MB"),
    ("tf.cumhist_ms", "ms"),
    ("tf.table_ms", "ms"),
    ("tf.train_s", "s"),
    ("extract.train_s", "s"),
    ("extract.classify_frame_s", "s"),
    ("extract.classify_mvox_s", "Mvox/s"),
    ("extract.f1", "ratio"),
    ("extract.features_mrows_s", "Mrows/s"),
    ("nn.forward_mrows_s", "Mrows/s"),
    ("track.track_s", "s"),
    ("track.start_ms", "ms"),
    ("track.rounds", "count"),
    ("track.round_ms", "ms"),
    ("track.grown_voxels", "count"),
    ("render.dvr_ms", "ms"),
    ("render.ns_per_ray", "ns"),
    ("render.unshaded_ms", "ms"),
    ("render.overlay_ms", "ms"),
    ("render.slice_ms", "ms"),
    ("serve.req_ms.p50", "ms"),
    ("serve.req_ms.p90", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.rtt_ms.render-slice.p50", "ms"),
    ("serve.rtt_ms.render-slice.p90", "ms"),
    ("serve.rtt_ms.classify.p50", "ms"),
    ("serve.rtt_ms.classify.p90", "ms"),
    ("serve.rtt_ms.track.p50", "ms"),
    ("serve.rtt_ms.track.p90", "ms"),
    ("serve.rtt_ms.report-stats.p50", "ms"),
    ("serve.rtt_ms.report-stats.p90", "ms"),
    ("serve.rtt_ms.open.p50", "ms"),
    ("serve.rtt_ms.open.p90", "ms"),
    ("serve.exec_ms.render-slice.p50", "ms"),
    ("serve.exec_ms.classify.p50", "ms"),
    ("serve.exec_ms.track.p50", "ms"),
    ("serve.exec_ms.report-stats.p50", "ms"),
    ("serve.exec_ms.open.p50", "ms"),
    ("serve.transport_ms.rung0.p50", "ms"),
    ("serve.transport_ms.rung1.p50", "ms"),
    ("serve.transport_ms.rung2.p50", "ms"),
    ("serve.batch_jobs_per_cycle", "ratio"),
    ("serve.batch_rows_per_job", "ratio"),
    ("serve.rejected", "count"),
    ("serve.idle_evictions", "count"),
    ("serve.quota_evictions", "count"),
    ("serve.gen_late_ms.p90", "ms"),
    ("protocol.codec_us", "us"),
    ("persist.save_s", "s"),
    ("persist.load_s", "s"),
    ("trace.advect_s", "s"),
    ("trace.psteps_s", "1/s"),
    ("bench.step_samples", "count"),
    ("bench.failed_ratio", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one run measured and checked.
pub struct Report {
    pub tracer: Tracer,
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
    context: Vec<(String, String)>,
}

impl Report {
    /// A report for one run, its context line started with the facts every
    /// result records: workload, seed, core and thread counts, revision.
    pub fn new(args: &Args) -> Self {
        let mut rep = Self {
            tracer: Tracer::new(args.trace),
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
            context: Vec::new(),
        };
        rep.context("workload", format!("\"{}\"", args.workload));
        rep.context("seed", args.seed.to_string());
        rep.context("nproc", nproc().to_string());
        rep.context("rayon_threads", rayon::current_num_threads().to_string());
        rep.context("git_revision", format!("\"{}\"", git_revision()));
        rep
    }

    /// Close the run: peak memory and the failure ratio.
    pub fn finish(mut self) -> Self {
        self.set("peak_rss_mb", peak_rss_mb());
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("bench.failed_ratio", ratio);
        self
    }

    /// Set a catalogued metric. An uncatalogued name is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name.to_string(), value);
    }

    /// Count one attempted operation of the program under test.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("e2ebench: operation failed: {what}");
        }
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// An output check; a failed check also counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            let what = what.into();
            eprintln!("e2ebench: check failed: {what}");
            self.failed += 1;
            self.failed_checks.push(what);
        }
    }

    /// Record a fact about the run (JSON value text) for the context line.
    pub fn context(&mut self, key: &str, json_value: impl Into<String>) {
        self.context.push((key.to_string(), json_value.into()));
    }

    pub fn context_json(&self) -> String {
        let body: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"context\": {{{}}}}}", body.join(", "))
    }

    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.tracer.to_json())
    }

    /// The metrics of the selected catalogue. End-to-end metrics must all be
    /// set by the workload; per-layer metrics it did not exercise read 0.
    pub fn metric_values(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let v = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("workload did not set end-to-end metric {name}"),
                };
                (name, if v.is_finite() { v } else { 0.0 }, unit)
            })
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty() && self.failed == 0
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metric_values(trace)
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
