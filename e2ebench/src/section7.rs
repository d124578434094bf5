//! `section7`: the paper's interactive loop at paper scale (256³ × 5 frames
//! of the shock bubble, 512² window), one analyst in a closed loop.
//!
//! Set-up generates the series, ingests it as `.rawz`, trains the IATF and
//! the classifier in core, picks the track seeds and renders the first view
//! in core (the warm-up frame, kept as the reference image). One pass opens
//! the paged series cold under a budget that holds all of it, regenerates
//! the IATF table and renders a shaded DVR frame for each seeded
//! (step, orbit angle) view, runs one adaptive 4D track, draws the tracking
//! overlay and classifies one full frame in data space.
//!
//! Stepping 15 time steps per stored frame moves the ring farther than its
//! accepted core, so a grow seeded in frame 0 alone never reaches frame 1;
//! the analyst therefore clicks the ring once in every frame.

use crate::fixture::{self, page, TAU};
use crate::metrics::Report;
use crate::tracer::Tracer;
use crate::util::{median, secs_since, Rng};
use crate::Args;
use ifet_core::metrics::Scores;
use ifet_core::prelude::*;
use ifet_render::render_tracking_overlay;
use ifet_volume::{CacheBudgetHandle, CacheStats, FrameSource, Mask3};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Scale {
    n: usize,
    stride: u32,
    width: usize,
    views: usize,
}

const FULL: Scale = Scale {
    n: 256,
    stride: 15,
    width: 512,
    views: 2,
};

const SMOKE: Scale = Scale {
    n: 48,
    stride: 15,
    width: 48,
    views: 2,
};

/// Camera elevation of every view (radians).
const ELEVATION: f32 = 0.35;
/// Operations of one pass besides its DVR views: the track, the overlay
/// frame and the classification.
const OPS_PER_PASS: u64 = 3;
/// Data-space classification must keep at least this F1 against truth.
const F1_FLOOR: f64 = 0.5;

struct Fixture {
    /// The analyst's in-core session; it owns the generated series.
    session: VisSession,
    truth: Vec<Mask3>,
    iatf: Iatf,
    paths: Vec<PathBuf>,
    budget_bytes: u64,
    /// Seeded (frame index, azimuth) views rendered each pass.
    views: Vec<(usize, f32)>,
    seeds: Vec<Seed4>,
    classify_frame: usize,
    reference_image: Image,
    width: usize,
}

struct PassOut {
    seconds: f64,
    step_ms: Vec<f64>,
    first_image: Image,
    masks: Vec<Mask3>,
    classified: Mask3,
    stats: CacheStats,
    budget: ifet_volume::BudgetStats,
}

impl fixture::Pass for PassOut {
    fn seconds(&self) -> f64 {
        self.seconds
    }
    fn step_ms(&self) -> &[f64] {
        &self.step_ms
    }
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let sc = if args.smoke { SMOKE } else { FULL };
    let mut rep = Report::new(args);
    rep.context(
        "fixture",
        format!(
            "{{\"series\": \"shock_bubble\", \"dims\": {}, \"steps\": \"195..=255/{}\", \"format\": \"rawz\", \"window\": {}, \"views\": {}, \"budget\": \"whole series\"}}",
            sc.n, sc.stride, sc.width, sc.views
        ),
    );

    let setup_start = Instant::now();
    let fx = setup(&sc, args.seed, dir, &rep.tracer)?;
    rep.set("setup_s", secs_since(setup_start));

    // In-core reference track, computed once outside every timed region.
    let series = fx.session.series();
    let tfs: Vec<TransferFunction1D> = series
        .iter()
        .map(|(t, frame)| fx.iatf.generate(t, frame))
        .collect();
    let criterion = AdaptiveTfCriterion::new(tfs, TAU).map_err(|e| e.to_string())?;
    let reference_masks =
        ifet_track::grow_4d(series, &criterion, &fx.seeds).map_err(|e| e.to_string())?;

    let traced = fixture::run_passes(
        &mut rep,
        args,
        OPS_PER_PASS + fx.views.len() as u64,
        |tr| pass(&fx, tr),
        |rep, out| check(rep, &fx, out, &reference_masks),
    )?;
    if let Some(traced) = traced {
        layer_metrics(&mut rep, &fx, &traced)?;
    }
    Ok(rep.finish())
}

fn setup(sc: &Scale, seed: u64, dir: &Path, tr: &Tracer) -> Result<Fixture, String> {
    let LabeledSeries { series, truth, .. } = tr.time("sim.generate", || {
        fixture::shock_bubble(sc.n, sc.stride, seed)
    });
    let paths = tr
        .time("volume.write_series", || {
            ifet_volume::io::write_series_with(dir, "sb", &series, true)
        })
        .map_err(|e| e.to_string())?;
    let session = fixture::trained_session(series, &truth, seed, true, tr)?;
    let iatf = session.iatf().expect("IATF trained in set-up").clone();
    let series = session.series();
    let frames = series.len();

    let mut rng = Rng::new(seed ^ 0x5ec7);
    let mut order: Vec<usize> = (0..frames).collect();
    rng.shuffle(&mut order);
    // Azimuths from a seeded start, spaced a quarter turn over the number
    // of views: the cube's ray lengths repeat every quarter turn, so this
    // spacing keeps the mean ray length, and with it the frame cost, the
    // same whatever the start.
    let base = rng.unit() as f32 * std::f32::consts::TAU;
    let views: Vec<(usize, f32)> = (0..sc.views)
        .map(|k| {
            let a = base + k as f32 * std::f32::consts::FRAC_PI_2 / sc.views as f32;
            (order[k % frames], a)
        })
        .collect();
    let classify_frame = order[sc.views % frames];

    let tfs: Vec<TransferFunction1D> = (0..frames)
        .map(|i| iatf.generate(series.steps()[i], series.frame(i)))
        .collect();
    let all: Vec<usize> = (0..frames).collect();
    let seeds = fixture::track_seeds(series, &truth, &tfs, &all)?;

    // Warm-up frame: the first view rendered in core, kept as the reference
    // the paged render must match.
    let (fi, azimuth) = views[0];
    let reference_image = tr.time("render.warmup", || {
        session.renderer.render(
            series.frame(fi),
            &tfs[fi],
            session.colormap,
            &Camera::framing(series.dims(), azimuth, ELEVATION),
            sc.width,
            sc.width,
        )
    });
    Ok(Fixture {
        budget_bytes: fixture::raw_frame_bytes(sc.n) * frames as u64,
        session,
        truth,
        iatf,
        paths,
        views,
        seeds,
        classify_frame,
        reference_image,
        width: sc.width,
    })
}

fn pass(fx: &Fixture, tr: &Tracer) -> Result<PassOut, String> {
    let start = Instant::now();
    let _pass = tr.span("section7.pass");
    let dims = fx.session.series().dims();
    let steps = fx.session.series().steps();
    let (renderer, cmap, w) = (&fx.session.renderer, fx.session.colormap, fx.width);
    let budget = CacheBudgetHandle::bytes(fx.budget_bytes);
    let ooc = tr
        .time("volume.open", || {
            OutOfCoreSeries::open_with(fx.paths.clone(), &budget, 0)
        })
        .map_err(|e| e.to_string())?;

    let mut step_ms = Vec::new();
    let mut first_image = None;
    for &(fi, azimuth) in &fx.views {
        let frame = page(tr, &ooc, fi)?;
        let t = Instant::now();
        let tf = tr.time("tf.generate", || fx.iatf.generate(steps[fi], &frame));
        let camera = Camera::framing(dims, azimuth, ELEVATION);
        let img = tr.time("render.dvr", || {
            renderer.render(&frame, &tf, cmap, &camera, w, w)
        });
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        first_image.get_or_insert(img);
    }

    let (masks, tfs) = {
        let _track = tr.span("track.track");
        let tfs = (0..ooc.len())
            .map(|i| {
                let frame = page(tr, &ooc, i)?;
                Ok(tr.time("tf.generate", || fx.iatf.generate(steps[i], &frame)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let criterion = AdaptiveTfCriterion::new(tfs.clone(), TAU).map_err(|e| e.to_string())?;
        (fixture::grow(tr, &ooc, &criterion, &fx.seeds)?, tfs)
    };

    let (fi, azimuth) = fx.views[0];
    let frame = page(tr, &ooc, fi)?;
    // The frame's adaptive TF colours the context and the tracked feature.
    let overlay = tr.time("render.overlay", || {
        render_tracking_overlay(
            renderer,
            &frame,
            &masks[fi],
            &tfs[fi],
            &tfs[fi],
            cmap,
            &Camera::framing(dims, azimuth, ELEVATION),
            w,
            w,
        )
    });
    std::hint::black_box(overlay);

    let ci = fx.classify_frame;
    let frame = page(tr, &ooc, ci)?;
    let clf = fx
        .session
        .classifier()
        .expect("classifier trained in set-up");
    let certainty = tr.time("extract.classify_frame", || {
        clf.classify_frame(&frame, ooc.normalized_time(steps[ci]))
    });
    let classified = Mask3::threshold(&certainty, 0.5);
    drop(_pass);

    Ok(PassOut {
        seconds: secs_since(start),
        step_ms,
        first_image: first_image.expect("at least one view"),
        masks,
        classified,
        stats: ooc.stats(),
        budget: budget.stats(),
    })
}

fn check(rep: &mut Report, fx: &Fixture, out: &PassOut, reference_masks: &[Mask3]) {
    rep.check(
        crate::util::same_bits(out.first_image.as_slice(), fx.reference_image.as_slice()),
        "section7: paged DVR frame is byte-identical to the in-core render",
    );
    fixture::check_track(rep, "section7", &out.masks, reference_masks);
    let f1 = Scores::of(&out.classified, &fx.truth[fx.classify_frame]).f1;
    eprintln!(
        "e2ebench: section7 classification of frame {} has F1 {f1:.4}",
        fx.classify_frame
    );
    rep.set("extract.f1", f1);
    rep.check(
        f1 >= F1_FLOOR,
        format!("section7: classification F1 {f1:.4} >= {F1_FLOOR}"),
    );
    rep.check(
        out.budget.high_water_bytes <= fx.budget_bytes,
        format!(
            "section7: budget high water {} <= {}",
            out.budget.high_water_bytes, fx.budget_bytes
        ),
    );
}

/// Per-layer metrics from the traced pass, plus replays that split a layer
/// call into parts from outside.
fn layer_metrics(rep: &mut Report, fx: &Fixture, traced: &PassOut) -> Result<(), String> {
    fixture::set_paging_metrics(rep, traced.stats, traced.budget);
    fixture::set_track_metrics(rep, &traced.masks);
    let pixels = (fx.width * fx.width) as f64;
    let dvr = median(&rep.tracer.ms("render.dvr"));
    rep.set("render.dvr_ms", dvr);
    rep.set("render.ns_per_ray", dvr * 1e6 / pixels);
    rep.set(
        "render.overlay_ms",
        median(&rep.tracer.ms("render.overlay")),
    );
    let classify_s = median(&rep.tracer.ms("extract.classify_frame")) / 1e3;
    rep.set("extract.classify_frame_s", classify_s);
    rep.set(
        "extract.classify_mvox_s",
        fx.session.series().dims().len() as f64 / 1e6 / classify_s,
    );
    fixture::set_training_metrics(rep);

    let tr = &rep.tracer;
    let series = fx.session.series();
    let (fi, azimuth) = fx.views[0];
    let frame = series.frame(fi);
    let tf = fx.iatf.generate(series.steps()[fi], frame);
    let mut unshaded = fx.session.renderer.clone();
    unshaded.params.shading = false;
    tr.time("render.unshaded", || {
        unshaded.render(
            frame,
            &tf,
            fx.session.colormap,
            &Camera::framing(series.dims(), azimuth, ELEVATION),
            fx.width,
            fx.width,
        )
    });
    fixture::iatf_split(tr, &fx.iatf, series);
    let classifier = fx
        .session
        .classifier()
        .expect("classifier trained in set-up");
    let voxels = features_vs_forward(tr, classifier, series.frame(fx.classify_frame));
    let raw_read = fixture::replay_read_decode(tr, &fx.paths, series.dims().len())?;

    rep.set(
        "render.unshaded_ms",
        median(&rep.tracer.ms("render.unshaded")),
    );
    fixture::set_iatf_split(rep);
    set_features_vs_forward(rep, voxels);
    let raw_written = fixture::raw_frame_bytes(series.dims().nx) * series.len() as u64;
    fixture::set_codec_metrics(rep, raw_read, raw_written, fixture::file_bytes(&fx.paths));
    Ok(())
}

/// Replay the classifier's two halves single-threaded over a band of the
/// frame's scanlines: feature assembly (`vectors_run_into`) for every run,
/// then the MLP forward pass (`forward_batch`) over the assembled rows.
/// Returns the number of rows (voxels) replayed.
fn features_vs_forward(tr: &Tracer, clf: &DataSpaceClassifier, frame: &ScalarVolume) -> u64 {
    let d = frame.dims();
    let extractor = clf.extractor();
    let net = clf.network();
    let nf = extractor.num_features();
    let b = clf.batch_rows().max(1);
    // Sixteen z-slices through the middle: enough rows for a steady rate
    // without replaying a whole 256³ frame on one thread.
    let slices = d.nz.min(16);
    let z0 = d.nz / 2 - slices / 2;
    let mut runs = Vec::new();
    for z in z0..z0 + slices {
        for y in 0..d.ny {
            for x0 in (0..d.nx).step_by(b) {
                runs.push((x0, b.min(d.nx - x0), y, z));
            }
        }
    }
    let voxels = (slices * d.nx * d.ny) as u64;
    let mut rows = Vec::with_capacity(voxels as usize * nf);
    let mut run = Vec::new();
    tr.time("extract.features", || {
        for &(x0, len, y, z) in &runs {
            extractor.vectors_run_into(frame, x0, len, y, z, 0.5, &mut run);
            rows.extend_from_slice(&run);
        }
    });
    let mut scratch = ifet_nn::mlp::Scratch::for_net(net);
    tr.time("nn.forward", || {
        let mut at = 0;
        for &(_, len, _, _) in &runs {
            std::hint::black_box(net.forward_batch(&rows[at..at + len * nf], &mut scratch));
            at += len * nf;
        }
    });
    voxels
}

fn set_features_vs_forward(rep: &mut Report, voxels: u64) {
    for (span, metric) in [
        ("extract.features", "extract.features_mrows_s"),
        ("nn.forward", "nn.forward_mrows_s"),
    ] {
        let s = median(&rep.tracer.ms(span)) / 1e3;
        rep.set(metric, voxels as f64 / 1e6 / s);
    }
}
