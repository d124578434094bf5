//! `stream`: out-of-core batch analysis under a tight budget. The shock
//! bubble at 96³ × 31 frames (steps 195..=255, stride 2) is ingested as
//! `.rawz`, opened under a byte budget of three raw frames with prefetch 1,
//! swept for IATF tables frame by frame, tracked once across all 31 frames,
//! and a 16³ seed grid is RK4-advected through a 16-frame swirl flow of the
//! same grid, stored compressed under its own budget.
//!
//! The per-voxel work is cheap and spread over many frames, so page-in,
//! decode, encode and eviction dominate; the volume layer is used for writes
//! beside reads.

use crate::fixture::{self, page, TAU};
use crate::metrics::Report;
use crate::tracer::Tracer;
use crate::util::{median, same_bits, secs_since, Rng};
use crate::Args;
use ifet_core::prelude::*;
use ifet_sim::flows::{flow_series, FlowKind};
use ifet_trace::{advect, pathlines_to_bytes, seed_grid, PathlineSet, TraceParams};
use ifet_volume::{BudgetStats, CacheBudgetHandle, CacheStats, Mask3};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Scale {
    n: usize,
    stride: u32,
    flow_frames: usize,
    seed_grid: usize,
    setups: usize,
}

const FULL: Scale = Scale {
    n: 96,
    stride: 2,
    flow_frames: 16,
    seed_grid: 16,
    setups: 2,
};

const SMOKE: Scale = Scale {
    n: 16,
    stride: 4,
    flow_frames: 4,
    seed_grid: 4,
    setups: 2,
};

/// Raw frames the scalar series may hold resident (or in flight).
const BUDGET_FRAMES: u64 = 3;
/// Raw frames the flow may hold: a frame pair of each of three components.
const FLOW_BUDGET_FRAMES: u64 = 6;
const RK4_DT: f64 = 0.25;

struct Fixture {
    session: VisSession,
    iatf: Iatf,
    seeds: Vec<Seed4>,
    flow: [TimeSeries; 3],
    flow_paths: [Vec<PathBuf>; 3],
    particles: Vec<[f64; 3]>,
    frame_bytes: u64,
}

struct PassOut {
    seconds: f64,
    step_ms: Vec<f64>,
    paths: Vec<PathBuf>,
    tfs: Vec<TransferFunction1D>,
    masks: Vec<Mask3>,
    pathlines: PathlineSet,
    stats: CacheStats,
    budget: BudgetStats,
    flow_budget: BudgetStats,
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
            "{{\"series\": \"shock_bubble\", \"dims\": {}, \"steps\": \"195..=255/{}\", \"format\": \"rawz\", \"budget_raw_frames\": {BUDGET_FRAMES}, \"prefetch\": 1, \"flow\": \"swirl\", \"flow_frames\": {}, \"seed_grid\": {}, \"rk4_dt\": {RK4_DT}, \"setups\": {}}}",
            sc.n, sc.stride, sc.flow_frames, sc.seed_grid, sc.setups
        ),
    );

    let mut setup_s = Vec::new();
    let mut fx = None;
    for _ in 0..sc.setups {
        drop(fx.take());
        let start = Instant::now();
        fx = Some(setup(&sc, args.seed, dir, &rep.tracer)?);
        setup_s.push(secs_since(start));
    }
    let fx = fx.expect("at least one set-up");
    rep.set("setup_s", median(&setup_s));

    // In-core references, computed outside every timed region.
    let series = fx.session.series();
    let ref_tfs: Vec<TransferFunction1D> = series
        .iter()
        .map(|(t, frame)| fx.iatf.generate(t, frame))
        .collect();
    let criterion = AdaptiveTfCriterion::new(ref_tfs.clone(), TAU).map_err(|e| e.to_string())?;
    let ref_masks =
        ifet_track::grow_4d(series, &criterion, &fx.seeds).map_err(|e| e.to_string())?;
    let [u, v, w] = &fx.flow;
    let ref_pathlines = advect(u, v, w, &fx.particles, &TraceParams { rk4_dt: RK4_DT })
        .map_err(|e| e.to_string())?;
    let refs = (ref_tfs, ref_masks, pathlines_to_bytes(&ref_pathlines));

    // Operations per pass: a table per frame, the track, the advection.
    let traced = fixture::run_passes(
        &mut rep,
        args,
        series.len() as u64 + 2,
        |tr| pass(&fx, dir, tr),
        |rep, out| check(rep, &fx, out, &refs),
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
    let session = fixture::trained_session(series, &truth, seed, false, tr)?;
    let iatf = session.iatf().expect("IATF trained in set-up").clone();
    let series = session.series();
    let tf0 = iatf.generate(series.steps()[0], series.frame(0));
    let seeds = fixture::track_seeds(series, &truth, &[tf0], &[0])?;

    let dims = series.dims();
    let f = tr.time("sim.generate_flow", || {
        flow_series(
            FlowKind::parse("swirl").expect("swirl is a known flow"),
            dims,
            sc.flow_frames,
            1,
        )
    });
    let flow_dir = dir.join("flow");
    let mut flow_paths = Vec::new();
    for (name, comp) in [("u", &f.u), ("v", &f.v), ("w", &f.w)] {
        flow_paths.push(
            ifet_volume::io::write_series_with(&flow_dir, name, comp, true)
                .map_err(|e| e.to_string())?,
        );
    }
    let flow_paths: [Vec<PathBuf>; 3] = flow_paths.try_into().expect("three components");

    // The seed lattice, shifted by a seeded sub-voxel offset per particle.
    let mut rng = Rng::new(seed ^ 0x57ea);
    let hi = (sc.n - 1) as f64;
    let particles = seed_grid(dims, sc.seed_grid)
        .into_iter()
        .map(|p| p.map(|c| (c + (rng.unit() - 0.5) * 0.5).clamp(0.0, hi)))
        .collect();

    // Warm-up: one frame encoded and one table generated, untimed.
    std::hint::black_box(ifet_volume::codec::encode_frame(series.frame(0).as_slice()));
    std::hint::black_box(iatf.generate(series.steps()[0], series.frame(0)));

    Ok(Fixture {
        iatf,
        seeds,
        flow: [f.u, f.v, f.w],
        flow_paths,
        particles,
        frame_bytes: fixture::raw_frame_bytes(sc.n),
        session,
    })
}

fn pass(fx: &Fixture, dir: &Path, tr: &Tracer) -> Result<PassOut, String> {
    let start = Instant::now();
    let _pass = tr.span("stream.pass");
    let series = fx.session.series();
    let paths = tr
        .time("volume.write_series", || {
            ifet_volume::io::write_series_with(&dir.join("series"), "sb", series, true)
        })
        .map_err(|e| e.to_string())?;
    let budget = CacheBudgetHandle::bytes(BUDGET_FRAMES * fx.frame_bytes);
    let ooc = tr
        .time("volume.open", || {
            OutOfCoreSeries::open_with(paths.clone(), &budget, 1)
        })
        .map_err(|e| e.to_string())?;

    let mut step_ms = Vec::new();
    let mut tfs = Vec::new();
    for (i, &t) in series.steps().iter().enumerate() {
        let t0 = Instant::now();
        let frame = page(tr, &ooc, i)?;
        tfs.push(tr.time("tf.generate", || fx.iatf.generate(t, &frame)));
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let masks = {
        let _track = tr.span("track.track");
        let criterion = AdaptiveTfCriterion::new(tfs.clone(), TAU).map_err(|e| e.to_string())?;
        fixture::grow(tr, &ooc, &criterion, &fx.seeds)?
    };

    let flow_budget = CacheBudgetHandle::bytes(FLOW_BUDGET_FRAMES * fx.frame_bytes);
    let open = |p: &Vec<PathBuf>| OutOfCoreSeries::open_with(p.clone(), &flow_budget, 0);
    let [pu, pv, pw] = &fx.flow_paths;
    let (u, v, w) = (
        open(pu).map_err(|e| e.to_string())?,
        open(pv).map_err(|e| e.to_string())?,
        open(pw).map_err(|e| e.to_string())?,
    );
    let pathlines = tr
        .time("trace.advect", || {
            advect(&u, &v, &w, &fx.particles, &TraceParams { rk4_dt: RK4_DT })
        })
        .map_err(|e| e.to_string())?;
    drop(_pass);

    Ok(PassOut {
        seconds: secs_since(start),
        step_ms,
        paths,
        tfs,
        masks,
        pathlines,
        stats: ooc.stats(),
        budget: budget.stats(),
        flow_budget: flow_budget.stats(),
    })
}

type Refs = (Vec<TransferFunction1D>, Vec<Mask3>, Vec<u8>);

fn check(rep: &mut Report, fx: &Fixture, out: &PassOut, refs: &Refs) {
    let (ref_tfs, ref_masks, ref_pathlines) = refs;
    let tables_match = out.tfs.len() == ref_tfs.len()
        && out
            .tfs
            .iter()
            .zip(ref_tfs)
            .all(|(a, b)| same_bits(a.table(), b.table()));
    rep.check(
        tables_match,
        "stream: paged IATF tables equal the in-core tables",
    );
    fixture::check_track(rep, "stream", &out.masks, ref_masks);
    rep.check(
        pathlines_to_bytes(&out.pathlines) == *ref_pathlines,
        "stream: paged pathline bytes equal the in-core advect",
    );
    for (what, stats, frames) in [
        ("series", out.budget, BUDGET_FRAMES),
        ("flow", out.flow_budget, FLOW_BUDGET_FRAMES),
    ] {
        let limit = frames * fx.frame_bytes;
        rep.check(
            stats.high_water_bytes <= limit,
            format!(
                "stream: {what} budget high water {} <= {limit}",
                stats.high_water_bytes
            ),
        );
    }
}

fn layer_metrics(rep: &mut Report, fx: &Fixture, traced: &PassOut) -> Result<(), String> {
    fixture::set_paging_metrics(rep, traced.stats, traced.budget);
    fixture::set_track_metrics(rep, &traced.masks);
    fixture::set_training_metrics(rep);
    let advect_s = median(&rep.tracer.ms("trace.advect")) / 1e3;
    rep.set("trace.advect_s", advect_s);
    // Each interval between flow frames takes ceil(1 / dt) RK4 substeps.
    let substeps = (1.0 / RK4_DT).ceil();
    let intervals: usize = traced
        .pathlines
        .pathlines
        .iter()
        .map(|p| p.points.len() - 1)
        .sum();
    rep.set("trace.psteps_s", intervals as f64 * substeps / advect_s);

    let series = fx.session.series();
    fixture::iatf_split(&rep.tracer, &fx.iatf, series);
    fixture::set_iatf_split(rep);
    let raw_read = fixture::replay_read_decode(&rep.tracer, &traced.paths, series.dims().len())?;
    let raw_written = fx.frame_bytes * series.len() as u64;
    fixture::set_codec_metrics(
        rep,
        raw_read,
        raw_written,
        fixture::file_bytes(&traced.paths),
    );
    Ok(())
}
