//! 4D region growing, the paper's tracking mechanism (Section 5).
//!
//! Starting from user-selected seed voxels, the region grows through the six
//! spatial neighbours within a frame *and* through the same voxel position in
//! the previous/next frames — valid because "there is sufficient temporal
//! sampling for the matching features to overlap in 3D space for consecutive
//! time steps". The per-frame result is "saved in a 3D volume texture for
//! rendering" — here, one [`Mask3`] per frame.
//!
//! Two implementations share the same contract:
//!
//! * `grow_4d_serial` — the test-only reference: a single queue, criterion
//!   evaluated through `accept` at every visited edge.
//! * [`grow_4d`] — level-synchronous frontier growth. Each round expands the
//!   current frontier of every frame in parallel (spatial neighbours stay
//!   within the frame, so each frame's mask is owned by one task), while
//!   temporal candidates are exchanged between rounds at a barrier. Criterion
//!   queries hit per-frame acceptance tables precomputed once via
//!   [`GrowthCriterion::precompute_frame`].
//!
//! The grown region is the connected component of the acceptance set that
//! is reachable from the seeds — a fixpoint independent of visit order — so
//! the two implementations return bit-identical masks (enforced by a
//! property test).

use crate::criterion::GrowthCriterion;
use ifet_obs as obs;
use ifet_volume::{map_frames_windowed, Dims3, FrameSource, Mask3, SeriesError};
use serde::{Deserialize, Serialize};
use std::time::Instant;

use rayon::prelude::*;

/// A seed voxel in space-time: `(frame index, x, y, z)`.
pub type Seed4 = (usize, usize, usize, usize);

/// Why a region-growing request is unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrowError {
    /// The criterion covers a different number of frames than the series.
    FrameCountMismatch {
        criterion_frames: usize,
        series_frames: usize,
    },
    /// A seed's frame index is past the end of the series.
    SeedFrameOutOfRange { seed: Seed4, frames: usize },
    /// A seed's spatial coordinate lies outside the volume.
    SeedOutOfBounds { seed: Seed4, dims: Dims3 },
    /// A [`GrowCheckpoint`] is inconsistent with the series it is resumed
    /// against (wrong frame count, wrong dims, or out-of-range frontier
    /// indices) — typically a corrupted or mismatched session artifact.
    BadCheckpoint { reason: String },
    /// Loading a frame from the source failed (paging I/O or a bad index).
    Source { reason: String },
}

impl From<SeriesError> for GrowError {
    fn from(e: SeriesError) -> Self {
        GrowError::Source {
            reason: e.to_string(),
        }
    }
}

impl std::fmt::Display for GrowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::FrameCountMismatch {
                criterion_frames,
                series_frames,
            } => write!(
                f,
                "criterion covers {criterion_frames} frames, series has {series_frames}"
            ),
            Self::SeedFrameOutOfRange { seed, frames } => write!(
                f,
                "seed frame {} out of range (series has {frames} frames)",
                seed.0
            ),
            Self::SeedOutOfBounds { seed, dims } => write!(
                f,
                "seed ({}, {}, {}) out of bounds for volume {dims}",
                seed.1, seed.2, seed.3
            ),
            Self::BadCheckpoint { reason } => write!(f, "bad grow checkpoint: {reason}"),
            Self::Source { reason } => write!(f, "frame source failed: {reason}"),
        }
    }
}

impl std::error::Error for GrowError {}

pub(crate) fn validate<S: FrameSource + ?Sized>(
    series: &S,
    criterion: &dyn GrowthCriterion,
    seeds: &[Seed4],
) -> Result<(), GrowError> {
    if criterion.num_frames() != series.len() {
        return Err(GrowError::FrameCountMismatch {
            criterion_frames: criterion.num_frames(),
            series_frames: series.len(),
        });
    }
    let d = series.dims();
    for &seed in seeds {
        let (fi, x, y, z) = seed;
        if fi >= series.len() {
            return Err(GrowError::SeedFrameOutOfRange {
                seed,
                frames: series.len(),
            });
        }
        if !d.contains(x, y, z) {
            return Err(GrowError::SeedOutOfBounds { seed, dims: d });
        }
    }
    Ok(())
}

/// Grow a 4D region from `seeds` through `series` under `criterion`.
///
/// Returns one mask per frame (empty masks for frames the region never
/// reaches). Seeds that fail the criterion are ignored (the user clicked
/// background). Runs the frontier-parallel algorithm; the result is
/// bit-identical to a serial single-queue BFS (the tests' oracle) and
/// independent of the frame source
/// (in-core or paged — pinned by the out-of-core equivalence suite).
pub fn grow_4d<S: FrameSource + ?Sized>(
    series: &S,
    criterion: &dyn GrowthCriterion,
    seeds: &[Seed4],
) -> Result<Vec<Mask3>, GrowError> {
    let _span = obs::span("track.grow_4d");
    let mut grower = Grower::start(series, criterion, seeds)?;
    grower.run(None);
    let masks = grower.into_masks();
    if obs::is_enabled() {
        let total: usize = masks.iter().map(|m| m.count()).sum();
        obs::counter("grown_voxels", total as u64);
    }
    Ok(masks)
}

/// Per-frame growth state. One task owns one frame per round, so spatial
/// expansion needs no synchronisation; temporal candidates cross frame
/// boundaries and are applied serially between rounds.
struct FrameState {
    mask: Mask3,
    frontier: Vec<usize>,
    spatial_next: Vec<usize>,
    temporal_out: Vec<(usize, usize)>, // (target frame, linear index)
}

impl FrameState {
    fn fresh(d: Dims3) -> Self {
        Self {
            mask: Mask3::empty(d),
            frontier: Vec::new(),
            spatial_next: Vec::new(),
            temporal_out: Vec::new(),
        }
    }
}

/// A serializable snapshot of an in-progress [`Grower`], taken at a round
/// boundary. Together with the original series and criterion it is enough to
/// resume growth and reach the exact fixpoint an uninterrupted run produces:
/// the grown region is the reachable connected component of the acceptance
/// set, which is independent of visit order, and at a round boundary the
/// per-frame masks + frontiers are the *entire* algorithm state (the
/// transient spatial/temporal buffers are always empty between rounds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowCheckpoint {
    /// Per-frame region state so far.
    pub masks: Vec<Mask3>,
    /// Per-frame frontier: linear voxel indices discovered in the last round.
    pub frontiers: Vec<Vec<usize>>,
    /// Number of completed rounds.
    pub rounds: u64,
}

/// The level-synchronous frontier-parallel 4D region grower, exposed as a
/// resumable state machine.
///
/// [`grow_4d`] is `start` + `run(None)` + `into_masks`. Long-running tracks
/// can instead call [`Grower::run`] with a round budget, [`Grower::checkpoint`]
/// the state, persist it, and later [`Grower::resume`] — the final masks are
/// bit-identical to an uninterrupted run (enforced by tests).
///
/// The criterion is consulted only during construction (to precompute
/// per-frame acceptance tables), so the `Grower` borrows neither the series
/// nor the criterion afterwards.
pub struct Grower {
    d: Dims3,
    tables: Vec<Mask3>,
    states: Vec<FrameState>,
    rounds: u64,
}

impl Grower {
    fn precompute_tables<S: FrameSource + ?Sized>(
        series: &S,
        criterion: &dyn GrowthCriterion,
    ) -> Result<Vec<Mask3>, GrowError> {
        let _span = obs::span("track.precompute_tables");
        obs::counter("frames", series.len() as u64);
        // Each table depends only on its own frame, so frames stream through
        // in ascending order through residency-bounded windows: one full
        // parallel pass for in-core sources, cache-capacity-sized windows for
        // paged ones. Acceptance tables (1 bit/voxel) stay resident; raw
        // frames do not. After this, the criterion is never consulted again.
        let tables: Vec<Mask3> = map_frames_windowed(series, |fi, _t, frame| {
            criterion.precompute_frame(fi, frame)
        })?;
        if obs::is_enabled() {
            let acceptance: usize = tables.iter().map(|t| t.count()).sum();
            obs::counter("acceptance_voxels", acceptance as u64);
        }
        Ok(tables)
    }

    /// Begin a fresh grow from `seeds`.
    pub fn start<S: FrameSource + ?Sized>(
        series: &S,
        criterion: &dyn GrowthCriterion,
        seeds: &[Seed4],
    ) -> Result<Self, GrowError> {
        validate(series, criterion, seeds)?;
        let d = series.dims();
        let tables = Self::precompute_tables(series, criterion)?;
        let mut states: Vec<FrameState> = (0..series.len()).map(|_| FrameState::fresh(d)).collect();
        for &(fi, x, y, z) in seeds {
            let i = d.index(x, y, z);
            if tables[fi].get_linear(i) && states[fi].mask.insert_linear(i) {
                states[fi].frontier.push(i);
            }
        }
        Ok(Self {
            d,
            tables,
            states,
            rounds: 0,
        })
    }

    /// Rebuild a grower from a persisted checkpoint.
    ///
    /// The checkpoint is validated against the series before any growth state
    /// is adopted — a corrupted or mismatched artifact yields
    /// [`GrowError::BadCheckpoint`], never a panic.
    pub fn resume<S: FrameSource + ?Sized>(
        series: &S,
        criterion: &dyn GrowthCriterion,
        ckpt: GrowCheckpoint,
    ) -> Result<Self, GrowError> {
        validate(series, criterion, &[])?;
        let d = series.dims();
        let bad = |reason: String| GrowError::BadCheckpoint { reason };
        if ckpt.masks.len() != series.len() {
            return Err(bad(format!(
                "checkpoint has {} frames, series has {}",
                ckpt.masks.len(),
                series.len()
            )));
        }
        if ckpt.frontiers.len() != series.len() {
            return Err(bad(format!(
                "checkpoint has {} frontiers for {} frames",
                ckpt.frontiers.len(),
                series.len()
            )));
        }
        for (fi, m) in ckpt.masks.iter().enumerate() {
            if m.dims() != d {
                return Err(bad(format!(
                    "frame {fi} mask dims {} do not match series dims {d}",
                    m.dims()
                )));
            }
        }
        for (fi, frontier) in ckpt.frontiers.iter().enumerate() {
            for &i in frontier {
                if i >= d.len() {
                    return Err(bad(format!(
                        "frame {fi} frontier index {i} out of range (volume has {} voxels)",
                        d.len()
                    )));
                }
                if !ckpt.masks[fi].get_linear(i) {
                    return Err(bad(format!(
                        "frame {fi} frontier index {i} is not set in its mask"
                    )));
                }
            }
        }
        let tables = Self::precompute_tables(series, criterion)?;
        let states = ckpt
            .masks
            .into_iter()
            .zip(ckpt.frontiers)
            .map(|(mask, frontier)| FrameState {
                mask,
                frontier,
                spatial_next: Vec::new(),
                temporal_out: Vec::new(),
            })
            .collect();
        Ok(Self {
            d,
            tables,
            states,
            rounds: ckpt.rounds,
        })
    }

    /// True when every frontier is exhausted (the fixpoint is reached).
    pub fn is_done(&self) -> bool {
        self.states.iter().all(|s| s.frontier.is_empty())
    }

    /// Completed rounds so far (including those before a resume).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Run at most `max_rounds` further rounds (all the way to the fixpoint
    /// when `None`). Returns `true` when growth is complete.
    pub fn run(&mut self, max_rounds: Option<u64>) -> bool {
        let _span = obs::span("track.grow_rounds");
        let mut this_call = 0u64;
        while !self.is_done() {
            if let Some(m) = max_rounds {
                if this_call >= m {
                    obs::counter("rounds", this_call);
                    return false;
                }
            }
            self.round();
            this_call += 1;
        }
        obs::counter("rounds", this_call);
        if obs::is_enabled() {
            let grown: usize = self.states.iter().map(|s| s.mask.count()).sum();
            obs::counter("grown_voxels", grown as u64);
        }
        true
    }

    /// One level-synchronous round: expand every frame's frontier in
    /// parallel, then exchange temporal candidates at the barrier.
    fn round(&mut self) {
        let _span = obs::span("track.round");
        if obs::is_enabled() {
            let frontier: usize = self.states.iter().map(|s| s.frontier.len()).sum();
            obs::counter("frontier", frontier as u64);
        }
        let d = self.d;
        let n_frames = self.states.len();
        let tables = &self.tables;
        let scope = obs::current();
        self.states.par_iter_mut().enumerate().for_each(|(fi, st)| {
            // Declared first so the scope is left after the per-frame work.
            let _obs = scope.enter();
            let table = &tables[fi];
            let frontier = std::mem::take(&mut st.frontier);
            for &i in &frontier {
                let (x, y, z) = d.coords(i);
                for (nx, ny, nz) in d.neighbors6(x, y, z) {
                    let j = d.index(nx, ny, nz);
                    if table.get_linear(j) && st.mask.insert_linear(j) {
                        st.spatial_next.push(j);
                    }
                }
                if fi > 0 {
                    st.temporal_out.push((fi - 1, i));
                }
                if fi + 1 < n_frames {
                    st.temporal_out.push((fi + 1, i));
                }
            }
            // Per-frame aggregates: sums are order-independent, so these are
            // deterministic across thread counts.
            obs::counter("accepted_spatial", st.spatial_next.len() as u64);
            obs::counter("temporal_proposals", st.temporal_out.len() as u64);
        });

        // Barrier: promote spatial discoveries to the next frontier, then
        // resolve cross-frame candidates against their target frames.
        let barrier_start = Instant::now();
        let mut accepted_temporal = 0u64;
        let mut proposals: Vec<(usize, usize)> = Vec::new();
        for st in &mut self.states {
            st.frontier = std::mem::take(&mut st.spatial_next);
            proposals.append(&mut st.temporal_out);
        }
        for (tf, i) in proposals {
            if self.tables[tf].get_linear(i) && self.states[tf].mask.insert_linear(i) {
                self.states[tf].frontier.push(i);
                accepted_temporal += 1;
            }
        }
        obs::counter("accepted_temporal", accepted_temporal);
        obs::counter_runtime("barrier_ns", barrier_start.elapsed().as_nanos() as u64);
        self.rounds += 1;
    }

    /// Snapshot the growth state. Only valid between [`Grower::run`] calls
    /// (which is the only time callers can observe the grower), where the
    /// transient buffers are empty by construction.
    pub fn checkpoint(&self) -> GrowCheckpoint {
        debug_assert!(self
            .states
            .iter()
            .all(|s| s.spatial_next.is_empty() && s.temporal_out.is_empty()));
        GrowCheckpoint {
            masks: self.states.iter().map(|s| s.mask.clone()).collect(),
            frontiers: self.states.iter().map(|s| s.frontier.clone()).collect(),
            rounds: self.rounds,
        }
    }

    /// Consume the grower, yielding one mask per frame.
    pub fn into_masks(self) -> Vec<Mask3> {
        self.states.into_iter().map(|s| s.mask).collect()
    }
}

/// Total voxels captured per frame — a convenient track summary
/// (this is the series plotted in the Figure 10 experiment).
pub fn voxels_per_frame(masks: &[Mask3]) -> Vec<usize> {
    masks.iter().map(|m| m.count()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criterion::{FixedBandCriterion, MaskCriterion};
    use ifet_volume::{Dims3, ScalarVolume, TimeSeries};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Single-threaded reference implementation of [`grow_4d`]: one FIFO queue,
    /// criterion consulted through [`GrowthCriterion::accept`] at every edge.
    fn grow_4d_serial<S: FrameSource + ?Sized>(
        series: &S,
        criterion: &dyn GrowthCriterion,
        seeds: &[Seed4],
    ) -> Result<Vec<Mask3>, GrowError> {
        validate(series, criterion, seeds)?;
        let d = series.dims();
        let n_frames = series.len();
        let mut masks: Vec<Mask3> = (0..n_frames).map(|_| Mask3::empty(d)).collect();
        let mut queue: VecDeque<Seed4> = VecDeque::new();

        for &(fi, x, y, z) in seeds {
            if masks[fi].get(x, y, z) {
                continue;
            }
            let frame = series.frame(fi)?;
            if criterion.accept(fi, &frame, x, y, z) {
                masks[fi].set(x, y, z, true);
                queue.push_back((fi, x, y, z));
            }
        }

        while let Some((fi, x, y, z)) = queue.pop_front() {
            // Spatial growth within the frame. The handle is held across the
            // neighbour sweep so a paged source reads the frame at most once here.
            let frame = series.frame(fi)?;
            for (nx, ny, nz) in d.neighbors6(x, y, z) {
                if !masks[fi].get(nx, ny, nz) && criterion.accept(fi, &frame, nx, ny, nz) {
                    masks[fi].set(nx, ny, nz, true);
                    queue.push_back((fi, nx, ny, nz));
                }
            }
            drop(frame);
            // Temporal growth: the same voxel in adjacent frames.
            for nf in [fi.wrapping_sub(1), fi + 1] {
                if nf >= n_frames {
                    continue;
                }
                if masks[nf].get(x, y, z) {
                    continue;
                }
                let nframe = series.frame(nf)?;
                if criterion.accept(nf, &nframe, x, y, z) {
                    masks[nf].set(x, y, z, true);
                    queue.push_back((nf, x, y, z));
                }
            }
        }

        Ok(masks)
    }

    /// A bright ball moving +x by 2 voxels per frame, fading 0.2 per frame.
    fn moving_ball_series() -> TimeSeries {
        let d = Dims3::cube(16);
        let frames = (0..4u32)
            .map(|t| {
                let cx = 4.0 + 2.0 * t as f32;
                let brightness = 1.0 - 0.2 * t as f32;
                let vol = ScalarVolume::from_fn(d, move |x, y, z| {
                    let dist = ((x as f32 - cx).powi(2)
                        + (y as f32 - 8.0).powi(2)
                        + (z as f32 - 8.0).powi(2))
                    .sqrt();
                    if dist <= 3.0 {
                        brightness
                    } else {
                        0.0
                    }
                });
                (t, vol)
            })
            .collect();
        TimeSeries::from_frames(frames)
    }

    #[test]
    fn grows_spatially_within_frame() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.5, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        // Frame 0 ball fully captured.
        let truth0 = Mask3::threshold(s.frame(0), 0.5);
        assert_eq!(masks[0], truth0);
    }

    #[test]
    fn tracks_across_frames_through_overlap() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        // Ball moves 2 voxels per frame with radius 3: consecutive frames
        // overlap, so every frame is reached.
        for (i, m) in masks.iter().enumerate() {
            assert!(m.count() > 0, "frame {i} not tracked");
        }
    }

    #[test]
    fn fixed_criterion_loses_fading_feature() {
        // The Figure 10 failure mode: brightness drops below the fixed band.
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.75, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        assert!(masks[0].count() > 0);
        // Frame 2 brightness = 0.6 < 0.75: lost.
        assert_eq!(masks[2].count(), 0);
        assert_eq!(masks[3].count(), 0);
    }

    #[test]
    fn seed_on_background_is_ignored() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.5, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 0, 0, 0)]).unwrap();
        assert!(masks.iter().all(|m| m.is_empty_mask()));
    }

    #[test]
    fn disconnected_feature_not_captured() {
        // A second bright ball far away must not be swallowed.
        let d = Dims3::cube(16);
        let vol = ScalarVolume::from_fn(d, |x, y, z| {
            let d1 =
                ((x as f32 - 3.0).powi(2) + (y as f32 - 3.0).powi(2) + (z as f32 - 3.0).powi(2))
                    .sqrt();
            let d2 =
                ((x as f32 - 12.0).powi(2) + (y as f32 - 12.0).powi(2) + (z as f32 - 12.0).powi(2))
                    .sqrt();
            if d1 <= 2.0 || d2 <= 2.0 {
                1.0
            } else {
                0.0
            }
        });
        let s = TimeSeries::from_frames(vec![(0, vol)]);
        let c = FixedBandCriterion::new(0.5, 2.0, 1).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 3, 3, 3)]).unwrap();
        assert!(masks[0].get(3, 3, 3));
        assert!(!masks[0].get(12, 12, 12));
    }

    #[test]
    fn grows_backward_in_time_too() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        // Seed in the LAST frame; earlier frames must still be reached.
        let masks = grow_4d(&s, &c, &[(3, 10, 8, 8)]).unwrap();
        assert!(masks[0].count() > 0, "backward temporal growth failed");
    }

    #[test]
    fn mask_criterion_grow_respects_masks() {
        let d = Dims3::cube(8);
        let s = TimeSeries::from_frames(vec![(0, ScalarVolume::zeros(d))]);
        let mut allowed = Mask3::empty(d);
        for x in 2..6 {
            allowed.set(x, 4, 4, true);
        }
        let c = MaskCriterion::new(vec![allowed.clone()]).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 3, 4, 4)]).unwrap();
        assert_eq!(masks[0], allowed);
    }

    #[test]
    fn voxels_per_frame_summary() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        let counts = voxels_per_frame(&masks);
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn parallel_matches_serial_on_fixture() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let seeds = [(0, 4, 8, 8), (3, 10, 8, 8), (1, 0, 0, 0)];
        assert_eq!(
            grow_4d(&s, &c, &seeds).unwrap(),
            grow_4d_serial(&s, &c, &seeds).unwrap()
        );
    }

    #[test]
    fn criterion_frame_mismatch_is_error() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.0, 1.0, 2).unwrap(); // wrong frame count
        let err = grow_4d(&s, &c, &[]).unwrap_err();
        assert_eq!(
            err,
            GrowError::FrameCountMismatch {
                criterion_frames: 2,
                series_frames: 4
            }
        );
        assert_eq!(grow_4d_serial(&s, &c, &[]).unwrap_err(), err);
    }

    #[test]
    fn out_of_bounds_seed_is_error() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.0, 1.0, s.len()).unwrap();
        let err = grow_4d(&s, &c, &[(0, 99, 0, 0)]).unwrap_err();
        assert!(matches!(err, GrowError::SeedOutOfBounds { .. }));
        assert_eq!(grow_4d_serial(&s, &c, &[(0, 99, 0, 0)]).unwrap_err(), err);
    }

    #[test]
    fn out_of_range_seed_frame_is_error() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.0, 1.0, s.len()).unwrap();
        let err = grow_4d(&s, &c, &[(9, 0, 0, 0)]).unwrap_err();
        assert_eq!(
            err,
            GrowError::SeedFrameOutOfRange {
                seed: (9, 0, 0, 0),
                frames: 4
            }
        );
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let seeds = [(0, 4, 8, 8)];
        let uninterrupted = grow_4d(&s, &c, &seeds).unwrap();

        // Interrupt after every possible number of rounds; each resume must
        // land on the identical fixpoint.
        for budget in 0..20u64 {
            let mut g = Grower::start(&s, &c, &seeds).unwrap();
            let done = g.run(Some(budget));
            let ckpt = g.checkpoint();
            assert_eq!(done, ckpt.frontiers.iter().all(|f| f.is_empty()));
            let mut resumed = Grower::resume(&s, &c, ckpt).unwrap();
            assert!(resumed.run(None));
            assert_eq!(resumed.into_masks(), uninterrupted, "budget {budget}");
        }
    }

    #[test]
    fn checkpoint_roundtrips_as_json() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let mut g = Grower::start(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        g.run(Some(2));
        let ckpt = g.checkpoint();
        let back: GrowCheckpoint =
            serde_json::from_str(&serde_json::to_string(&ckpt).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.rounds, 2);
    }

    #[test]
    fn bad_checkpoints_are_typed_errors() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let mut g = Grower::start(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        g.run(Some(1));
        let good = g.checkpoint();

        // Wrong frame count.
        let mut ck = good.clone();
        ck.masks.pop();
        assert!(matches!(
            Grower::resume(&s, &c, ck),
            Err(GrowError::BadCheckpoint { .. })
        ));
        // Wrong mask dims.
        let mut ck = good.clone();
        ck.masks[0] = Mask3::empty(Dims3::cube(4));
        assert!(matches!(
            Grower::resume(&s, &c, ck),
            Err(GrowError::BadCheckpoint { .. })
        ));
        // Out-of-range frontier index.
        let mut ck = good.clone();
        ck.frontiers[0] = vec![usize::MAX];
        assert!(matches!(
            Grower::resume(&s, &c, ck),
            Err(GrowError::BadCheckpoint { .. })
        ));
        // Frontier voxel not present in its mask.
        let mut ck = good.clone();
        let unset = (0..s.dims().len())
            .find(|&i| !ck.masks[1].get_linear(i))
            .unwrap();
        ck.frontiers[1] = vec![unset];
        assert!(matches!(
            Grower::resume(&s, &c, ck),
            Err(GrowError::BadCheckpoint { .. })
        ));
        // The untouched checkpoint still resumes fine.
        assert!(Grower::resume(&s, &c, good).is_ok());
    }

    #[test]
    fn grow_errors_display() {
        let e = GrowError::FrameCountMismatch {
            criterion_frames: 2,
            series_frames: 4,
        };
        assert!(e.to_string().contains("2 frames"));
        let e = GrowError::SeedOutOfBounds {
            seed: (0, 99, 0, 0),
            dims: Dims3::cube(16),
        };
        assert!(e.to_string().contains("(99, 0, 0)"));
    }

    /// 2–4 frames of random masks over one shared (small) grid — a random 4D
    /// acceptance set for grow equivalence tests.
    fn multi_frame_masks_strategy() -> impl Strategy<Value = Vec<Mask3>> {
        let dims = (2usize..7, 2usize..7, 2usize..7).prop_map(|(x, y, z)| Dims3::new(x, y, z));
        (dims, 2usize..5).prop_flat_map(|(d, n)| {
            proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), d.len()).prop_map(move |bits| {
                    let mut m = Mask3::empty(d);
                    for (i, b) in bits.into_iter().enumerate() {
                        m.set_linear(i, b);
                    }
                    m
                }),
                n,
            )
        })
    }

    proptest! {
        #[test]
        fn parallel_grow_matches_serial_on_random_masks(
            masks in multi_frame_masks_strategy(),
            seed_fracs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..4),
        ) {
            // The tentpole contract: the frontier-parallel grower must be
            // bit-identical to the serial BFS on arbitrary series/criteria/seeds.
            let d = masks[0].dims();
            let n = masks.len();
            let series = TimeSeries::from_frames(
                (0..n).map(|k| (k as u32, ScalarVolume::zeros(d))).collect(),
            );
            let criterion = MaskCriterion::new(masks).unwrap();
            let seeds: Vec<_> = seed_fracs
                .iter()
                .map(|&(ff, vf)| {
                    let fi = ((n - 1) as f64 * ff) as usize;
                    let (x, y, z) = d.coords(((d.len() - 1) as f64 * vf) as usize);
                    (fi, x, y, z)
                })
                .collect();
            let par = grow_4d(&series, &criterion, &seeds).unwrap();
            let ser = grow_4d_serial(&series, &criterion, &seeds).unwrap();
            prop_assert_eq!(par, ser);
        }

        #[test]
        fn parallel_grow_matches_serial_with_value_band(
            frames in proptest::collection::vec(
                proptest::collection::vec(0.0f32..1.0, 64), 2..5),
            lo in 0.0f32..0.6, width in 0.1f32..0.6,
        ) {
            // Same contract under a value-band criterion over random scalar data
            // (exercises `precompute_frame` against per-voxel `accept`).
            let d = Dims3::cube(4);
            let n = frames.len();
            let series = TimeSeries::from_frames(
                frames
                    .into_iter()
                    .enumerate()
                    .map(|(k, data)| (k as u32, ScalarVolume::from_vec(d, data)))
                    .collect(),
            );
            let criterion = FixedBandCriterion::new(lo, lo + width, n).unwrap();
            let seeds = [(0usize, 1usize, 2usize, 3usize), (n - 1, 0, 0, 0)];
            let par = grow_4d(&series, &criterion, &seeds).unwrap();
            let ser = grow_4d_serial(&series, &criterion, &seeds).unwrap();
            prop_assert_eq!(par, ser);
        }
    }
}
