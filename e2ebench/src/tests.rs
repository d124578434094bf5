//! Self-test: the metric catalogue matches `BENCHMARK.json`, and a
//! smoke-size run of every workload, traced and untraced, passes its checks
//! and emits every catalogued metric with its unit.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{run, Args};
use serde_json::Value;
use std::path::Path;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn names_units(v: &Value) -> Vec<(String, String)> {
    v.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                field(m, "name").as_str().expect("name").to_string(),
                field(m, "unit").as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(names_units(field(&b, "end_to_end")), owned(END_TO_END));
    assert_eq!(names_units(field(&b, "per_layer")), owned(PER_LAYER));
    let workloads: Vec<&str> = field(&b, "workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name").as_str().expect("name"))
        .collect();
    assert_eq!(workloads, ["section7", "serve_mixed", "stream"]);
}

/// Per-layer metrics each workload exercises, so its traced run must
/// report them non-zero.
fn exercised(workload: &str) -> Vec<&'static str> {
    let mut m = vec![
        "volume.page_in_ms",
        "volume.paged_mb",
        "volume.read_mb_s",
        "volume.decode_mb_s",
        "volume.encode_mb_s",
        "volume.compress_ratio",
        "volume.high_water_mb",
        "tf.table_ms",
        "tf.train_s",
        "track.track_s",
        "track.start_ms",
        "track.rounds",
        "track.round_ms",
        "track.grown_voxels",
        "bench.step_samples",
    ];
    m.extend(match workload {
        "section7" => vec![
            "extract.train_s",
            "extract.classify_frame_s",
            "extract.classify_mvox_s",
            "extract.f1",
            "extract.features_mrows_s",
            "nn.forward_mrows_s",
            "render.dvr_ms",
            "render.ns_per_ray",
            "render.unshaded_ms",
            "render.overlay_ms",
        ],
        "serve_mixed" => vec![
            "extract.train_s",
            "extract.classify_frame_s",
            "render.slice_ms",
            "serve.req_ms.p50",
            "serve.req_ms.p90",
            "serve.rtt_ms.classify.p50",
            "serve.exec_ms.classify.p50",
            "serve.transport_ms.rung0.p50",
            "serve.batch_jobs_per_cycle",
            "serve.batch_rows_per_job",
            "protocol.codec_us",
            "persist.save_s",
            "persist.load_s",
        ],
        _ => vec!["volume.evictions", "trace.advect_s", "trace.psteps_s"],
    });
    m
}

#[test]
fn smoke_runs_pass_checks_and_emit_every_metric() {
    let base = Path::new(env!("CARGO_MANIFEST_DIR"));
    for workload in ["section7", "serve_mixed", "stream"] {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let args = Args {
                workload: workload.into(),
                seed: 7,
                seconds: 0.5,
                trace,
                smoke: true,
            };
            let report = run(&args, base).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(
                report.correct(),
                "{workload} (trace {trace}) failed its checks"
            );
            let emitted: Vec<(String, String)> = report
                .metric_values(trace)
                .into_iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(emitted, owned(table), "{workload} (trace {trace})");
            let must = if trace {
                exercised(workload)
            } else {
                END_TO_END.iter().map(|(n, _)| *n).collect()
            };
            for (name, value, _) in report.metric_values(trace) {
                if must.contains(&name) {
                    assert!(value > 0.0, "{workload}: {name} is {value}");
                }
            }
            let line: Value =
                serde_json::from_str(&report.result_json(trace)).expect("result line is JSON");
            assert_eq!(field(&line, "correct").as_bool(), Some(true));
        }
    }
}
