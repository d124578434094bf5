//! Inputs shared by the workloads: the seeded shock-bubble series, the
//! analyst's key frames and paints, and the layer calls the workloads time
//! the same way (frame paging, the 4D grow, `.rawz` replay).

use crate::metrics::Report;
use crate::tracer::Tracer;
use crate::util::{median, mix};
use crate::Args;
use ifet_core::prelude::*;
use ifet_sim::shock_bubble::{shock_bubble_with, ShockBubbleParams};
use ifet_track::{Grower, GrowthCriterion};
use ifet_volume::{FrameSource, Mask3};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Opacity threshold of the adaptive tracking criterion.
pub const TAU: f32 = 0.5;

/// Bytes of one raw f32 frame of an `n³` grid.
pub fn raw_frame_bytes(n: usize) -> u64 {
    (n * n * n * 4) as u64
}

/// The shock-bubble series over steps 195..=255 at `stride`, noise seeded
/// from the run seed.
pub fn shock_bubble(n: usize, stride: u32, seed: u64) -> LabeledSeries {
    shock_bubble_with(ShockBubbleParams {
        dims: Dims3::cube(n),
        stride,
        seed: mix(seed),
        ..Default::default()
    })
}

/// An in-core session trained the way an analyst would: ring-band key
/// frames on the first and last step, then (optionally) truth-sampled
/// paints for the data-space classifier.
pub fn trained_session(
    series: TimeSeries,
    truth: &[Mask3],
    seed: u64,
    classifier: bool,
    tr: &Tracer,
) -> Result<VisSession, String> {
    let steps = series.steps().to_vec();
    let (glo, ghi) = series.global_range();
    let mut s = VisSession::new(series).map_err(|e| e.to_string())?;
    let params = ShockBubbleParams::default();
    for (t, tn) in [(steps[0], 0.0f32), (steps[steps.len() - 1], 1.0)] {
        let (lo, hi) = params.ring_band(tn);
        s.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    }
    tr.time("tf.train_iatf", || {
        s.train_iatf(IatfParams {
            epochs: 200,
            ..Default::default()
        });
    });
    if classifier {
        // Paints on the first, middle and last frame, like the key frames,
        // so the classifier sees the whole drift it must follow.
        let mut oracle = PaintOracle::new(mix(seed ^ 0x9a1));
        for fi in [0, steps.len() / 2, steps.len() - 1] {
            s.add_paints(oracle.paint_from_truth(steps[fi], &truth[fi], 100, 100))
                .map_err(|e| e.to_string())?;
        }
        tr.time("extract.train_classifier", || {
            s.train_classifier(FeatureSpec::default(), ClassifierParams::default())
                .map(|_| ())
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(s)
}

/// For each listed frame `fi`, the first ground-truth voxel (in scan order)
/// that passes the adaptive criterion of `tfs[fi]`: a click on the feature
/// that the grow accepts.
pub fn track_seeds(
    series: &TimeSeries,
    truth: &[Mask3],
    tfs: &[TransferFunction1D],
    frames: &[usize],
) -> Result<Vec<Seed4>, String> {
    frames
        .iter()
        .map(|&fi| {
            let frame = series.frame(fi);
            truth[fi]
                .set_coords()
                .find(|&(x, y, z)| tfs[fi].opacity_at(*frame.get(x, y, z)) >= TAU)
                .map(|(x, y, z)| (fi, x, y, z))
                .ok_or(format!(
                    "no ground-truth voxel of frame {fi} passes the criterion"
                ))
        })
        .collect()
}

/// What the shared pass loop needs from one pass's output.
pub trait Pass {
    fn seconds(&self) -> f64;
    fn step_ms(&self) -> &[f64];
}

/// Untraced passes until `args.seconds` have elapsed (just one when
/// tracing), each counted and checked; `pass_s` and `step_ms.p50` are
/// their medians. When tracing, one more pass runs traced and is returned.
pub fn run_passes<P: Pass>(
    rep: &mut Report,
    args: &Args,
    ops_per_pass: u64,
    mut pass: impl FnMut(&Tracer) -> Result<P, String>,
    mut check: impl FnMut(&mut Report, &P),
) -> Result<Option<P>, String> {
    let untraced = Tracer::new(false);
    let mut seconds = Vec::new();
    let mut steps = Vec::new();
    let start = Instant::now();
    loop {
        let out = pass(&untraced)?;
        rep.ops(ops_per_pass, 0);
        check(rep, &out);
        seconds.push(out.seconds());
        steps.extend_from_slice(out.step_ms());
        if args.trace || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    rep.set("pass_s", median(&seconds));
    rep.set("step_ms.p50", median(&steps));
    rep.set("bench.step_samples", steps.len() as f64);
    if !args.trace {
        return Ok(None);
    }
    let traced = pass(&rep.tracer)?;
    rep.ops(ops_per_pass, 0);
    check(rep, &traced);
    rep.set(
        "bench.trace_overhead",
        traced.seconds() / median(&seconds) - 1.0,
    );
    Ok(Some(traced))
}

/// `OutOfCoreSeries::frame`, recorded as a miss or a hit span according to
/// the series' own miss counter.
pub fn page(tr: &Tracer, ooc: &OutOfCoreSeries, i: usize) -> Result<Arc<ScalarVolume>, String> {
    let misses = ooc.stats().misses;
    let start = Instant::now();
    let frame = ooc.frame(i).map_err(|e| format!("paging frame {i}: {e}"))?;
    let end = Instant::now();
    let name = if ooc.stats().misses > misses {
        "volume.frame.miss"
    } else {
        "volume.frame.hit"
    };
    tr.record(name, tr.current(), None, start, end);
    Ok(frame)
}

/// The 4D grow to its fixpoint, one round per call so rounds are timed.
pub fn grow<S: FrameSource + ?Sized>(
    tr: &Tracer,
    series: &S,
    criterion: &dyn GrowthCriterion,
    seeds: &[Seed4],
) -> Result<Vec<Mask3>, String> {
    let mut g = tr
        .time("track.start", || Grower::start(series, criterion, seeds))
        .map_err(|e| e.to_string())?;
    while !tr.time("track.round", || g.run(Some(1))) {}
    Ok(g.into_masks())
}

/// Check a grown track against the in-core reference and that it reached
/// every frame.
pub fn check_track(rep: &mut Report, what: &str, got: &[Mask3], reference: &[Mask3]) {
    rep.check(
        got == reference,
        format!("{what}: paged track equals the in-core grow_4d"),
    );
    let empty: Vec<usize> = (0..got.len()).filter(|&i| got[i].count() == 0).collect();
    rep.check(
        empty.is_empty(),
        format!("{what}: track grew in every frame (empty frames: {empty:?})"),
    );
}

/// Replay `fs::read` and `codec::decode_frame` on `.rawz` files, recording
/// `volume.read` and `volume.decode` spans; returns the raw bytes decoded.
pub fn replay_read_decode(tr: &Tracer, paths: &[PathBuf], voxels: usize) -> Result<u64, String> {
    let mut raw = 0;
    for p in paths {
        let bytes = tr
            .time("volume.read", || std::fs::read(p))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        let values = tr
            .time("volume.decode", || {
                ifet_volume::codec::decode_frame(&bytes, voxels)
            })
            .map_err(|e| format!("{}: {e}", p.display()))?;
        raw += values.len() as u64 * 4;
    }
    Ok(raw)
}

/// Set the volume-layer replay metrics: read and decode throughput from the
/// replay (`raw_read` bytes decoded), encode throughput and compression
/// ratio from the ingest spans (each writing `raw_written` bytes as
/// `rawz_bytes`).
pub fn set_codec_metrics(rep: &mut Report, raw_read: u64, raw_written: u64, rawz_bytes: u64) {
    let tr = &rep.tracer;
    let total_s = |name: &str| tr.ms(name).iter().sum::<f64>() / 1e3;
    let (read_s, decode_s) = (total_s("volume.read"), total_s("volume.decode"));
    let encode_s = median(&tr.ms("volume.write_series")) / 1e3;
    let mb = |b: u64| b as f64 / 1e6;
    rep.set("volume.read_mb_s", mb(raw_read) / read_s);
    rep.set("volume.decode_mb_s", mb(raw_read) / decode_s);
    rep.set("volume.encode_mb_s", mb(raw_written) / encode_s);
    rep.set(
        "volume.compress_ratio",
        raw_written as f64 / rawz_bytes as f64,
    );
}

/// Set the paging metrics of one traced pass from the series' cache stats,
/// its budget's stats and the miss spans.
pub fn set_paging_metrics(
    rep: &mut Report,
    stats: ifet_volume::CacheStats,
    budget: ifet_volume::BudgetStats,
) {
    let misses = rep.tracer.ms("volume.frame.miss");
    rep.set("volume.page_in_ms", median(&misses));
    let accesses = (stats.hits + stats.misses).max(1);
    rep.set("volume.hit_ratio", stats.hits as f64 / accesses as f64);
    rep.set("volume.evictions", stats.evictions as f64);
    rep.set("volume.paged_mb", stats.bytes_paged as f64 / 1e6);
    rep.set("volume.read_retries", stats.read_retries as f64);
    rep.set("volume.high_water_mb", budget.high_water_bytes as f64 / 1e6);
}

/// Set the track-layer metrics from the traced pass's spans.
pub fn set_track_metrics(rep: &mut Report, masks: &[Mask3]) {
    let tr = &rep.tracer;
    let (track, start, rounds) = (
        tr.ms("track.track"),
        tr.ms("track.start"),
        tr.ms("track.round"),
    );
    rep.set("track.track_s", median(&track) / 1e3);
    rep.set("track.start_ms", median(&start));
    rep.set("track.rounds", rounds.len() as f64);
    rep.set("track.round_ms", median(&rounds));
    let grown: usize = masks.iter().map(Mask3::count).sum();
    rep.set("track.grown_voxels", grown as f64);
}

/// Total size of files on disk.
pub fn file_bytes(paths: &[PathBuf]) -> u64 {
    paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Time `Iatf::generate` (histogram + table) and `generate_with_hist`
/// (table alone) on every frame.
pub fn iatf_split(tr: &Tracer, iatf: &Iatf, series: &TimeSeries) {
    let (lo, hi) = iatf.domain();
    let bins = IatfParams::default().bins;
    for (t, frame) in series.iter() {
        tr.time("tf.generate_replay", || iatf.generate(t, frame));
        let h = Histogram::of_values(frame.as_slice(), bins, lo, hi);
        let ch = CumulativeHistogram::from_histogram(&h);
        tr.time("tf.table", || iatf.generate_with_hist(t, &ch));
    }
}

pub fn set_iatf_split(rep: &mut Report) {
    let table = median(&rep.tracer.ms("tf.table"));
    let full = median(&rep.tracer.ms("tf.generate_replay"));
    rep.set("tf.table_ms", table);
    rep.set("tf.cumhist_ms", (full - table).max(0.0));
}

/// Set the training metrics from the set-up spans.
pub fn set_training_metrics(rep: &mut Report) {
    let tr = &rep.tracer;
    let (iatf, classifier) = (tr.ms("tf.train_iatf"), tr.ms("extract.train_classifier"));
    rep.set("tf.train_s", median(&iatf) / 1e3);
    rep.set("extract.train_s", median(&classifier) / 1e3);
}
