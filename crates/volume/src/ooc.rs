//! Out-of-core time series: disk-backed frames with a budgeted LRU cache and
//! background read-ahead.
//!
//! The paper's motivation is terascale data: "when the volume size is large
//! or many time steps are used, it can be time consuming to load the volumes
//! for training since not all the data can fit in core" (Section 4.2.2), and
//! "as the data set grows ... it becomes impractical to load the entire data
//! onto a single computer" (Section 4.2.3). [`OutOfCoreSeries`] keeps only a
//! bounded number of frames resident, paging the rest from the raw-brick
//! files of [`crate::io`]; the IATF workflow needs only the key frames in
//! core, exactly as the paper argues.
//!
//! # Budgets
//!
//! Residency is governed by a [`CacheBudget`] — either a frame count or a
//! byte total — owned by a [`CacheBudgetHandle`]. The handle is cloneable and
//! may be shared across several series (a multi-variable session opens one
//! series per variable). The budget owns one paging table for all of them:
//! every resident frame, keyed by (series, frame index), carries a stamp from
//! one recency clock, and eviction takes the least-recently-stamped frame
//! across every series, charged by its actual byte size. One mutex guards
//! the table, the reads in flight and every byte account. In-flight reads
//! (demand misses and prefetches that have reserved space but not yet
//! committed) count against the budget, so the high-water marks are honest
//! even while the prefetch worker is mid-read.
//!
//! A series may also carry a resident-byte quota
//! ([`OutOfCoreSeries::set_quota`]): over it, the series evicts its own
//! least-recent frames before the shared budget acts. While an
//! [`OutOfCoreSeries::activity`] guard is alive the series counts as active,
//! and shared-budget eviction takes an idle series' frame when one exists.
//!
//! The bound covers *accounted* memory: frames resident in the table plus
//! reads in flight. A frame handed out by [`OutOfCoreSeries::frame`]
//! (or a `FrameHandle` over it) is an `Arc` that stays alive after eviction
//! until its holder drops it, and is no longer charged. A caller walking a
//! series through `map_frames_windowed` holds at most one window of handles,
//! so actual memory can exceed the bound by at most one window per
//! concurrent walker. When a series is dropped, its resident frames and its
//! accounts leave the budget with it.
//!
//! # Prefetch
//!
//! [`OutOfCoreSeries::set_prefetch`] starts a background `std::thread` that
//! services read-ahead hints (see `FrameSource::prefetch_hint` in
//! [`crate::source`]): while the caller computes on the current window, the
//! worker pages the next window's frames through the same reserve → read →
//! commit path as demand misses. Prefetch is *purely* a warm-cache hint — a
//! failed or skipped prefetch never changes what demand reads return, and
//! prefetch emits no obs spans (only runtime counters), so stable traces are
//! byte-identical whether read-ahead is on or off. Transient read failures
//! are retried a bounded number of times on both paths; the prefetch worker
//! then degrades silently while demand reads surface the error.

use crate::dims::Dims3;
use crate::io::IoError;
use crate::series::TimeSeries;
use crate::volume::ScalarVolume;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Paging statistics for one [`OutOfCoreSeries`].
///
/// Mirrored into the obs runtime counter set (`volume.ooc.*`); kept out of
/// stable traces because hit/miss/evict sequences depend on scheduling.
///
/// `hits`/`misses` count *demand* requests only (`hits + misses` is the total
/// number of demand frame accesses); prefetch traffic is reported separately
/// so the algebra stays closed: `prefetch_wasted <= prefetched`, and every
/// successful load (demand miss or prefetch) adds one frame's bytes to
/// `bytes_paged`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// On-disk bytes paged in: raw frames charge `voxels * 4`, compressed
    /// frames charge their (smaller) compressed file size — the same number
    /// the byte budget charges, so "frames per byte" is an honest ratio.
    pub bytes_paged: u64,
    /// Frames resident right now (this series).
    pub resident: usize,
    /// Bytes resident right now (this series).
    pub resident_bytes: u64,
    /// Maximum frames ever resident-or-in-flight at once across the whole
    /// shared budget — the bounded-memory witness.
    pub resident_high_water: usize,
    /// Maximum bytes ever resident-or-in-flight at once across the whole
    /// shared budget.
    pub resident_high_water_bytes: u64,
    /// Frames loaded by the prefetch worker (committed to the cache).
    pub prefetched: u64,
    /// Demand accesses served by a frame the prefetch worker loaded.
    pub prefetch_hits: u64,
    /// Prefetch requests skipped because the frame was already resident or
    /// in flight.
    pub prefetch_misses: u64,
    /// Prefetched frames evicted before any demand access touched them.
    pub prefetch_wasted: u64,
    /// Transient read failures absorbed by the bounded retry loop.
    pub read_retries: u64,
}

/// How much may be resident at once, shared by every series on one
/// [`CacheBudgetHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheBudget {
    /// At most `n` frames resident-or-in-flight (floored at 1).
    Frames(usize),
    /// At most `n` bytes resident-or-in-flight, charged by actual frame byte
    /// size. A budget smaller than one frame still admits a single frame so
    /// progress is always possible.
    Bytes(u64),
}

/// Aggregate accounting for a [`CacheBudgetHandle`], across all member series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetStats {
    pub resident_frames: usize,
    pub resident_bytes: u64,
    pub inflight_frames: usize,
    pub inflight_bytes: u64,
    /// Peak `resident + inflight` frames.
    pub high_water_frames: usize,
    /// Peak `resident + inflight` bytes.
    pub high_water_bytes: u64,
    /// Total evictions driven by this budget (all member series).
    pub evictions: u64,
    /// Evictions performed by the quota-local phase: a series over its own
    /// byte quota reclaiming its own LRU frames.
    pub quota_evictions: u64,
    /// Global evictions redirected away from the globally least-recent frame
    /// because its series was active and an idle series' frame was
    /// available instead.
    pub idle_evictions: u64,
}

/// One series' share of its budget; see [`OutOfCoreSeries::residency`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    pub resident_bytes: u64,
    pub inflight_bytes: u64,
    /// Peak `resident + inflight` bytes for this series.
    pub high_water_bytes: u64,
    /// The series' resident-byte quota, if one is set.
    pub quota_bytes: Option<u64>,
    /// Evictions the quota-local phase charged to this series.
    pub quota_evictions: u64,
    /// Live [`Activity`] guards on this series.
    pub active: usize,
}

/// A paging-table key: (series id, frame index).
type Key = (u64, usize);

/// One resident frame.
struct Entry {
    vol: Arc<ScalarVolume>,
    /// Recency stamp; the smallest stamp is the least recently used frame.
    stamp: u64,
    /// Loaded by the prefetch worker and not yet touched by demand.
    prefetched: bool,
    /// Budget charge of this frame (its on-disk byte size), remembered so
    /// eviction frees exactly what insertion charged.
    bytes: u64,
}

/// One open series' accounts; created when the series opens, removed when
/// it drops.
#[derive(Default)]
struct SeriesState {
    /// Traffic counters plus `resident`/`resident_bytes`; the high-water
    /// fields are read from the budget instead.
    stats: CacheStats,
    inflight_bytes: u64,
    hw_bytes: u64,
    quota: Option<u64>,
    /// Live activity guards; `0` marks the series idle, making its frames
    /// preferred eviction victims.
    active: usize,
    quota_evictions: u64,
}

/// Everything one budget governs. In-flight totals change only in
/// `begin_read`/`end_read`, resident totals only in `end_read`/`remove`.
#[derive(Default)]
struct BudgetState {
    frames: HashMap<Key, Entry>,
    /// Reads that have reserved space and not yet committed, with their
    /// charge. A demand for a frame in here waits for it instead of reading.
    inflight: HashMap<Key, u64>,
    series: HashMap<u64, SeriesState>,
    next_series: u64,
    /// Recency clock: every hit and insert takes the next stamp.
    tick: u64,
    resident_bytes: u64,
    inflight_bytes: u64,
    hw_frames: usize,
    hw_bytes: u64,
    evictions: u64,
    quota_evictions: u64,
    idle_evictions: u64,
}

impl BudgetState {
    fn series_mut(&mut self, id: u64) -> &mut SeriesState {
        self.series
            .get_mut(&id)
            .expect("an open series has an account")
    }

    /// Demand lookup: on a hit, refresh the stamp and count the hit (and
    /// the prefetch hit, on a frame's first demand touch).
    fn touch(&mut self, key: Key) -> Option<Arc<ScalarVolume>> {
        let e = self.frames.get_mut(&key)?;
        self.tick += 1;
        e.stamp = self.tick;
        let prefetched = std::mem::take(&mut e.prefetched);
        let vol = e.vol.clone();
        let stats = &mut self.series_mut(key.0).stats;
        if prefetched {
            stats.prefetch_hits += 1;
            ifet_obs::counter_runtime("volume.ooc.prefetch_hit", 1);
        }
        stats.hits += 1;
        ifet_obs::counter_runtime("volume.ooc.hit", 1);
        Some(vol)
    }

    /// Charge a read of `bytes` for `key` before its bytes land.
    fn begin_read(&mut self, key: Key, bytes: u64) {
        self.inflight.insert(key, bytes);
        self.inflight_bytes += bytes;
        self.hw_frames = self.hw_frames.max(self.frames.len() + self.inflight.len());
        self.hw_bytes = self.hw_bytes.max(self.resident_bytes + self.inflight_bytes);
        let s = self.series_mut(key.0);
        s.inflight_bytes += bytes;
        s.hw_bytes = s.hw_bytes.max(s.stats.resident_bytes + s.inflight_bytes);
    }

    /// End the read of `key`: its charge moves to the resident account with
    /// `loaded` when the read succeeded, and is released otherwise.
    fn end_read(&mut self, key: Key, loaded: Option<(Arc<ScalarVolume>, bool)>) {
        let bytes = self.inflight.remove(&key).expect("a read ends once");
        self.inflight_bytes -= bytes;
        let s = self.series_mut(key.0);
        s.inflight_bytes -= bytes;
        let Some((vol, prefetched)) = loaded else {
            return;
        };
        s.stats.resident += 1;
        s.stats.resident_bytes += bytes;
        s.stats.bytes_paged += bytes;
        ifet_obs::counter_runtime("volume.ooc.bytes_paged", bytes);
        if prefetched {
            s.stats.prefetched += 1;
            ifet_obs::counter_runtime("volume.ooc.prefetched", 1);
        }
        self.resident_bytes += bytes;
        self.tick += 1;
        let entry = Entry {
            vol,
            stamp: self.tick,
            prefetched,
            bytes,
        };
        self.frames.insert(key, entry);
    }

    /// Take `key` out of the table and its bytes out of the accounts.
    fn remove(&mut self, key: Key) -> Entry {
        let e = self.frames.remove(&key).expect("removing a resident frame");
        self.resident_bytes -= e.bytes;
        let stats = &mut self.series_mut(key.0).stats;
        stats.resident -= 1;
        stats.resident_bytes -= e.bytes;
        e
    }

    /// The least-recently-stamped resident frame of a series `keep` accepts.
    /// Stamps are unique, so the choice does not depend on map order.
    fn lru(&self, keep: impl Fn(u64) -> bool) -> Option<Key> {
        self.frames
            .iter()
            .filter(|(k, _)| keep(k.0))
            .min_by_key(|(_, e)| e.stamp)
            .map(|(&k, _)| k)
    }

    fn evict(&mut self, key: Key) {
        let e = self.remove(key);
        self.evictions += 1;
        let stats = &mut self.series_mut(key.0).stats;
        stats.evictions += 1;
        ifet_obs::counter_runtime("volume.ooc.evict", 1);
        if e.prefetched {
            stats.prefetch_wasted += 1;
            ifet_obs::counter_runtime("volume.ooc.prefetch_wasted", 1);
        }
    }

    /// The quota-local phase: evict series `id`'s own least-recent frame.
    /// Returns `false` when it has nothing resident.
    fn evict_own(&mut self, id: u64) -> bool {
        let Some(key) = self.lru(|s| s == id) else {
            return false;
        };
        self.evict(key);
        self.quota_evictions += 1;
        self.series_mut(id).quota_evictions += 1;
        ifet_obs::counter_runtime("volume.ooc.quota_evict", 1);
        true
    }

    /// Evict the least-recent resident frame, preferring frames of *idle*
    /// series (no live activity guard) over frames of active ones. Returns
    /// `false` when nothing is resident.
    fn evict_global(&mut self) -> bool {
        let Some(lru) = self.lru(|_| true) else {
            return false;
        };
        let victim = self.lru(|id| self.series[&id].active == 0).unwrap_or(lru);
        self.evict(victim);
        if victim != lru {
            self.idle_evictions += 1;
            ifet_obs::counter_runtime("volume.ooc.idle_evict", 1);
        }
        true
    }

    /// Whether series `id` can take `bytes` more without crossing its
    /// quota. Series without a quota always have room.
    fn quota_room(&self, id: u64, bytes: u64) -> bool {
        let s = &self.series[&id];
        s.quota.map_or(true, |q| {
            s.stats.resident_bytes + s.inflight_bytes + bytes <= q
        })
    }
}

struct Budget {
    limit: CacheBudget,
    state: Mutex<BudgetState>,
    cv: Condvar,
}

impl Budget {
    fn lock(&self) -> MutexGuard<'_, BudgetState> {
        self.state
            .lock()
            .expect("a thread panicked while paging through this budget")
    }

    fn fits(&self, st: &BudgetState, frame_bytes: u64) -> bool {
        match self.limit {
            CacheBudget::Frames(n) => st.frames.len() + st.inflight.len() < n.max(1),
            CacheBudget::Bytes(b) => st.resident_bytes + st.inflight_bytes + frame_bytes <= b,
        }
    }

    /// Evict until a read of `frame_bytes` for series `id` may start, and
    /// say whether it may. Two phases: a series over its own quota evicts
    /// its *own* LRU frames first (never charging its overflow to others),
    /// then the global budget evicts idle-preferred. When nothing is
    /// evictable and nothing else is in flight, the read may start anyway
    /// so a sub-frame budget (or sub-frame quota) still makes progress (the
    /// single-frame floor, globally and per series).
    fn make_room(&self, st: &mut BudgetState, id: u64, frame_bytes: u64) -> bool {
        while !st.quota_room(id, frame_bytes) && st.evict_own(id) {}
        while !self.fits(st, frame_bytes) && st.evict_global() {}
        let s = &st.series[&id];
        let own_floor = s.stats.resident_bytes + s.inflight_bytes == 0;
        (st.quota_room(id, frame_bytes) || own_floor)
            && (self.fits(st, frame_bytes) || st.inflight.is_empty())
    }

    /// Sleep until a read commits or releases. Timed as a spurious-wakeup /
    /// missed-notify guard; callers re-check either way.
    fn wait<'a>(&self, st: MutexGuard<'a, BudgetState>) -> MutexGuard<'a, BudgetState> {
        self.cv
            .wait_timeout(st, Duration::from_millis(50))
            .expect("a thread panicked while paging through this budget")
            .0
    }

    /// End a reserved read (see [`BudgetState::end_read`]) and wake waiters.
    fn finish(&self, key: Key, loaded: Option<(Arc<ScalarVolume>, bool)>) {
        self.lock().end_read(key, loaded);
        self.cv.notify_all();
    }

    fn stats(&self) -> BudgetStats {
        let st = self.lock();
        BudgetStats {
            resident_frames: st.frames.len(),
            resident_bytes: st.resident_bytes,
            inflight_frames: st.inflight.len(),
            inflight_bytes: st.inflight_bytes,
            high_water_frames: st.hw_frames,
            high_water_bytes: st.hw_bytes,
            evictions: st.evictions,
            quota_evictions: st.quota_evictions,
            idle_evictions: st.idle_evictions,
        }
    }
}

/// A cloneable handle to a shared [`CacheBudget`]. Every
/// [`OutOfCoreSeries`] opened with the same handle draws on the same
/// allowance; eviction picks the globally least-recent frame across all of
/// them, charged by byte size.
#[derive(Clone)]
pub struct CacheBudgetHandle(Arc<Budget>);

impl CacheBudgetHandle {
    pub fn new(limit: CacheBudget) -> Self {
        Self(Arc::new(Budget {
            limit,
            state: Mutex::new(BudgetState::default()),
            cv: Condvar::new(),
        }))
    }

    /// Shorthand for `new(CacheBudget::Frames(n))`.
    pub fn frames(n: usize) -> Self {
        Self::new(CacheBudget::Frames(n))
    }

    /// Shorthand for `new(CacheBudget::Bytes(n))`.
    pub fn bytes(n: u64) -> Self {
        Self::new(CacheBudget::Bytes(n))
    }

    pub fn limit(&self) -> CacheBudget {
        self.0.limit
    }

    /// Aggregate accounting across all member series, including in-flight
    /// reads and the high-water marks.
    pub fn stats(&self) -> BudgetStats {
        self.0.stats()
    }
}

impl std::fmt::Debug for CacheBudgetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CacheBudgetHandle")
            .field(&self.0.limit)
            .finish()
    }
}

/// Fault injected into one read attempt by a test hook; see
/// [`OutOfCoreSeries::set_read_fault_hook`].
#[derive(Debug, Clone, Copy)]
pub enum ReadFault {
    /// Sleep before performing the real read (scheduling chaos).
    Delay(Duration),
    /// Fail this attempt with a transient I/O error.
    Error,
}

/// Per-attempt fault decision: `(frame index, 1-based attempt) -> fault?`.
pub type ReadFaultHook = Arc<dyn Fn(usize, u32) -> Option<ReadFault> + Send + Sync>;

/// Bounded retry for transient read failures, on both demand and prefetch
/// paths.
const READ_ATTEMPTS: u32 = 3;

struct Inner {
    dims: Dims3,
    steps: Vec<u32>,
    paths: Vec<PathBuf>,
    /// Per-frame budget charge: the on-disk byte size of each frame file.
    /// Raw frames charge `voxels * 4`; compressed frames charge their
    /// (smaller) container size, so a byte budget holds more of them.
    charges: Vec<u64>,
    /// Largest per-frame charge, for the conservative `capacity()` bound.
    max_charge: u64,
    /// Page frames in by `mmap` (zero-copy borrow of the OS page cache)
    /// instead of a copying read. Requires raw `"f32le"` frames.
    mmap: bool,
    budget: CacheBudgetHandle,
    /// This series' id in the budget's paging table.
    id: u64,
    /// Memoized global `(min, max)`: one streaming scan, reused thereafter.
    range: Mutex<Option<(f32, f32)>>,
    fault: Mutex<Option<ReadFaultHook>>,
}

impl Inner {
    /// The physical page-in of one frame: mapped (zero-copy) or copied, with
    /// compressed frames decoding on the copy path.
    fn read_one(&self, i: usize) -> Result<ScalarVolume, IoError> {
        if self.mmap {
            crate::mmapio::map_frame(&self.paths[i])
        } else {
            crate::io::read_frame(&self.paths[i]).map(|(v, _)| v)
        }
    }

    /// One logical read with bounded retry; the fault hook (when installed)
    /// may delay or fail individual attempts.
    fn read_frame(&self, i: usize) -> Result<ScalarVolume, IoError> {
        let hook = self.fault.lock().unwrap().clone();
        let mut attempt = 0;
        loop {
            attempt += 1;
            let injected = hook.as_ref().and_then(|h| h(i, attempt));
            let res = match injected {
                Some(ReadFault::Error) => Err(IoError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient read fault",
                ))),
                Some(ReadFault::Delay(d)) => {
                    std::thread::sleep(d);
                    self.read_one(i)
                }
                None => self.read_one(i),
            };
            match res {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt >= READ_ATTEMPTS {
                        return Err(e);
                    }
                    self.budget.0.lock().series_mut(self.id).stats.read_retries += 1;
                    ifet_obs::counter_runtime("volume.ooc.read_retry", 1);
                }
            }
        }
    }

    /// Demand access: hit, wait out an in-flight read, or load ourselves.
    fn demand_frame(&self, i: usize) -> Result<Arc<ScalarVolume>, IoError> {
        assert!(i < self.paths.len(), "frame {i} out of range");
        let key = (self.id, i);
        let b = &self.budget.0;
        let mut st = b.lock();
        loop {
            if let Some(v) = st.touch(key) {
                return Ok(v);
            }
            // A frame already in flight (usually the prefetch worker's) is
            // waited for, then re-checked.
            if !st.inflight.contains_key(&key) && b.make_room(&mut st, self.id, self.charges[i]) {
                break;
            }
            st = b.wait(st);
        }
        st.series_mut(self.id).stats.misses += 1;
        ifet_obs::counter_runtime("volume.ooc.miss", 1);
        st.begin_read(key, self.charges[i]);
        drop(st);
        let read = self.read_frame(i).map(Arc::new);
        b.finish(key, read.as_ref().ok().map(|v| (v.clone(), false)));
        read
    }

    /// Read-ahead: best-effort warm of the cache. Never surfaces errors —
    /// a failed prefetch just leaves the frame for demand to (re)load.
    fn prefetch_frame(&self, i: usize) {
        if i >= self.paths.len() {
            return;
        }
        let key = (self.id, i);
        let b = &self.budget.0;
        let mut st = b.lock();
        loop {
            if st.frames.contains_key(&key) || st.inflight.contains_key(&key) {
                st.series_mut(self.id).stats.prefetch_misses += 1;
                ifet_obs::counter_runtime("volume.ooc.prefetch_miss", 1);
                return;
            }
            if b.make_room(&mut st, self.id, self.charges[i]) {
                break;
            }
            st = b.wait(st);
        }
        st.begin_read(key, self.charges[i]);
        drop(st);
        let read = self.read_frame(i).ok().map(|v| (Arc::new(v), true));
        b.finish(key, read);
    }
}

impl Drop for Inner {
    /// Take this series' frames and account out of the (possibly shared)
    /// budget. The prefetch worker has stopped, so nothing is in flight.
    fn drop(&mut self) {
        let b = &self.budget.0;
        // A poisoned table is left as it is: a drop must not panic.
        let Ok(mut st) = b.state.lock() else { return };
        let keys: Vec<Key> = st
            .frames
            .keys()
            .filter(|k| k.0 == self.id)
            .copied()
            .collect();
        for key in keys {
            st.remove(key);
        }
        st.series.remove(&self.id);
        drop(st);
        b.cv.notify_all();
    }
}

/// Marks a series active until dropped; see [`OutOfCoreSeries::activity`].
pub struct Activity<'a> {
    series: &'a OutOfCoreSeries,
}

impl Drop for Activity<'_> {
    fn drop(&mut self) {
        let inner = &self.series.inner;
        if let Ok(mut st) = inner.budget.0.state.lock() {
            st.series_mut(inner.id).active -= 1;
        }
    }
}

enum PrefetchMsg {
    /// Frames to read ahead, recorded into the requester's obs scope.
    Batch(Vec<usize>, ifet_obs::Scope),
    Stop,
}

struct PrefetchWorker {
    tx: mpsc::Sender<PrefetchMsg>,
    handle: std::thread::JoinHandle<()>,
}

/// A time series whose frames live on disk, with residency bounded by a
/// (possibly shared) [`CacheBudget`].
pub struct OutOfCoreSeries {
    inner: Arc<Inner>,
    prefetch_depth: usize,
    worker: Option<PrefetchWorker>,
}

impl OutOfCoreSeries {
    /// Open from existing frame files with a private `Frames(capacity)`
    /// budget (reads each sidecar for the step label, but no voxel data).
    pub fn open(paths: Vec<PathBuf>, capacity: usize) -> Result<Self, IoError> {
        Self::open_with(paths, &CacheBudgetHandle::frames(capacity), 0)
    }

    /// [`Self::open`] with an explicit (possibly shared) budget and a
    /// prefetch depth (`0` disables read-ahead).
    pub fn open_with(
        paths: Vec<PathBuf>,
        budget: &CacheBudgetHandle,
        prefetch: usize,
    ) -> Result<Self, IoError> {
        Self::open_opts(paths, budget, prefetch, false)
    }

    /// [`Self::open_with`] paging by zero-copy `mmap` instead of copying
    /// reads. Every frame must be raw `"f32le"` (compressed containers have
    /// no byte-for-byte voxel image on disk to borrow); on targets without
    /// mmap support the series transparently falls back to copying reads
    /// with identical results.
    pub fn open_mmap(
        paths: Vec<PathBuf>,
        budget: &CacheBudgetHandle,
        prefetch: usize,
    ) -> Result<Self, IoError> {
        Self::open_opts(paths, budget, prefetch, true)
    }

    fn open_opts(
        paths: Vec<PathBuf>,
        budget: &CacheBudgetHandle,
        prefetch: usize,
        mmap: bool,
    ) -> Result<Self, IoError> {
        // Read sidecars only — cheap JSON reads for dims, steps, and dtype.
        let mut labelled: Vec<(u32, PathBuf)> = Vec::with_capacity(paths.len());
        let mut dims = None;
        for (k, p) in paths.iter().enumerate() {
            let meta = crate::io::read_sidecar(p)?;
            let raw = meta.dtype == "f32le";
            let compressed = meta.dtype == crate::codec::DTYPE;
            if !raw && !compressed {
                return Err(IoError::UnsupportedDtype(meta.dtype));
            }
            if mmap && !raw {
                // Mapping borrows the on-disk bytes as voxels; a compressed
                // container has no such image, so refuse up front rather
                // than failing on first access.
                return Err(IoError::UnsupportedDtype(meta.dtype));
            }
            match dims {
                Some(expected) if expected != meta.dims => {
                    return Err(IoError::DimsMismatch {
                        path: p.clone(),
                        expected,
                        got: meta.dims,
                    });
                }
                _ => dims = Some(meta.dims),
            }
            labelled.push((meta.step.unwrap_or(k as u32), p.clone()));
        }
        labelled.sort_by_key(|(t, _)| *t);
        let dims = dims.ok_or(IoError::NoFrames)?;
        let (steps, paths): (Vec<u32>, Vec<PathBuf>) = labelled.into_iter().unzip();
        let mut charges = Vec::with_capacity(paths.len());
        for p in &paths {
            charges.push(std::fs::metadata(p)?.len());
        }
        let max_charge = charges.iter().copied().max().unwrap_or(1).max(1);
        let id = {
            let mut st = budget.0.lock();
            st.next_series += 1;
            let id = st.next_series;
            st.series.insert(id, SeriesState::default());
            id
        };
        let mut s = Self {
            inner: Arc::new(Inner {
                dims,
                steps,
                paths,
                charges,
                max_charge,
                mmap,
                budget: budget.clone(),
                id,
                range: Mutex::new(None),
                fault: Mutex::new(None),
            }),
            prefetch_depth: 0,
            worker: None,
        };
        s.set_prefetch(prefetch);
        Ok(s)
    }

    pub fn dims(&self) -> Dims3 {
        self.inner.dims
    }

    pub fn len(&self) -> usize {
        self.inner.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.paths.is_empty()
    }

    pub fn steps(&self) -> &[u32] {
        &self.inner.steps
    }

    /// The frame files backing this series, in step order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.inner.paths
    }

    /// Load frame `i`, from cache when resident. The `Arc` keeps the frame
    /// alive for the caller even after eviction.
    pub fn frame(&self, i: usize) -> Result<Arc<ScalarVolume>, IoError> {
        self.inner.demand_frame(i)
    }

    /// Frame by step label.
    pub fn frame_at_step(&self, t: u32) -> Result<Option<Arc<ScalarVolume>>, IoError> {
        match self.inner.steps.binary_search(&t) {
            Ok(i) => Ok(Some(self.frame(i)?)),
            Err(_) => Ok(None),
        }
    }

    /// Residency bound in frames: the budget expressed as whole frames of
    /// this series. Byte budgets divide by the *largest* per-frame charge
    /// (conservative for mixed compressed sizes), round down, and floor at
    /// one frame.
    pub fn capacity(&self) -> usize {
        match self.inner.budget.0.limit {
            CacheBudget::Frames(n) => n.max(1),
            CacheBudget::Bytes(b) => ((b / self.inner.max_charge) as usize).max(1),
        }
    }

    /// Whether frames page in by zero-copy `mmap` on this series.
    pub fn is_mmap(&self) -> bool {
        self.inner.mmap
    }

    /// The budget handle this series draws on (shared across clones).
    pub fn budget(&self) -> &CacheBudgetHandle {
        &self.inner.budget
    }

    /// Set (or clear) a resident-byte quota for this series. A series over
    /// its quota evicts its *own* least-recent frames before reserving
    /// more; it never spills its overflow onto other series. A quota
    /// smaller than one frame still admits a single frame (the per-series
    /// floor).
    pub fn set_quota(&self, quota_bytes: Option<u64>) {
        self.inner.budget.0.lock().series_mut(self.inner.id).quota = quota_bytes;
    }

    /// Mark one request in flight against this series until the guard
    /// drops. While any guard is alive the series' frames are deprioritized
    /// as eviction victims: global eviction takes the LRU frame of an
    /// *idle* series when one exists.
    pub fn activity(&self) -> Activity<'_> {
        self.inner.budget.0.lock().series_mut(self.inner.id).active += 1;
        Activity { series: self }
    }

    /// This series' bytes, quota and activity under its budget.
    pub fn residency(&self) -> ResidencyStats {
        let st = self.inner.budget.0.lock();
        let s = &st.series[&self.inner.id];
        ResidencyStats {
            resident_bytes: s.stats.resident_bytes,
            inflight_bytes: s.inflight_bytes,
            high_water_bytes: s.hw_bytes,
            quota_bytes: s.quota,
            quota_evictions: s.quota_evictions,
            active: s.active,
        }
    }

    /// Read-ahead depth in frames (`0` = prefetch disabled).
    pub fn prefetch_depth(&self) -> usize {
        self.prefetch_depth
    }

    /// Start (or stop, with `0`) the background read-ahead worker. Hints
    /// from `FrameSource::prefetch_hint` are clamped to `depth` frames.
    pub fn set_prefetch(&mut self, depth: usize) {
        if depth == self.prefetch_depth && (depth == 0) == self.worker.is_none() {
            return;
        }
        self.stop_worker();
        self.prefetch_depth = depth;
        if depth == 0 {
            return;
        }
        let inner = self.inner.clone();
        let (tx, rx) = mpsc::channel::<PrefetchMsg>();
        let handle = std::thread::Builder::new()
            .name("ifet-ooc-prefetch".into())
            .spawn(move || {
                while let Ok(PrefetchMsg::Batch(idxs, scope)) = rx.recv() {
                    // Runtime counters from this batch go to the capture
                    // that asked for it, merged when the batch is done.
                    let _obs = scope.enter();
                    for i in idxs {
                        inner.prefetch_frame(i);
                    }
                }
            })
            .expect("spawn prefetch worker");
        self.worker = Some(PrefetchWorker { tx, handle });
    }

    /// Queue read-ahead for `upcoming` frame indices (clamped to the
    /// configured depth). No-op when prefetch is disabled. Never blocks.
    pub fn request_prefetch(&self, upcoming: &[usize]) {
        let Some(w) = &self.worker else { return };
        let take = self.prefetch_depth.min(upcoming.len());
        if take == 0 {
            return;
        }
        let batch: Vec<usize> = upcoming[..take]
            .iter()
            .copied()
            .filter(|&i| i < self.inner.paths.len())
            .collect();
        if !batch.is_empty() {
            let _ = w.tx.send(PrefetchMsg::Batch(batch, ifet_obs::current()));
        }
    }

    /// Install (or clear) a per-read fault hook. Test instrumentation for
    /// the chaos suite: lets a test delay or transiently fail individual
    /// read attempts on both the demand and prefetch paths.
    pub fn set_read_fault_hook(&self, hook: Option<ReadFaultHook>) {
        *self.inner.fault.lock().unwrap() = hook;
    }

    /// Full paging statistics. Per-series traffic counters plus the shared
    /// budget's high-water marks (which include in-flight reads).
    pub fn stats(&self) -> CacheStats {
        let st = self.inner.budget.0.lock();
        CacheStats {
            resident_high_water: st.hw_frames,
            resident_high_water_bytes: st.hw_bytes,
            ..st.series[&self.inner.id].stats
        }
    }

    /// Frames currently resident (this series).
    pub fn resident(&self) -> usize {
        self.stats().resident
    }

    /// Global `(min, max)` across all frames, computed by one streaming scan
    /// in ascending frame order and memoized.
    pub(crate) fn global_range_cached(&self) -> Result<(f32, f32), IoError> {
        if let Some(r) = *self.inner.range.lock().unwrap() {
            return Ok(r);
        }
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for i in 0..self.len() {
            let (a, b) = self.frame(i)?.value_range();
            lo = lo.min(a);
            hi = hi.max(b);
        }
        let r = if lo > hi { (0.0, 0.0) } else { (lo, hi) };
        *self.inner.range.lock().unwrap() = Some(r);
        Ok(r)
    }

    /// Materialize the whole series in core (only for small data / tests).
    pub fn load_all(&self) -> Result<TimeSeries, IoError> {
        let mut frames = Vec::with_capacity(self.len());
        for (i, &t) in self.inner.steps.iter().enumerate() {
            frames.push((t, (*self.frame(i)?).clone()));
        }
        Ok(TimeSeries::from_frames(frames))
    }

    fn stop_worker(&mut self) {
        if let Some(w) = self.worker.take() {
            let _ = w.tx.send(PrefetchMsg::Stop);
            let _ = w.handle.join();
        }
    }
}

impl Drop for OutOfCoreSeries {
    fn drop(&mut self) {
        self.stop_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_series_with;
    use std::path::Path;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn sample_series() -> TimeSeries {
        let d = Dims3::cube(8);
        TimeSeries::from_frames(
            (0..6u32)
                .map(|k| (k * 10, ScalarVolume::filled(d, k as f32)))
                .collect(),
        )
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ifet_ooc_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const FB: u64 = 8 * 8 * 8 * 4; // bytes per sample_series frame

    /// Write `s` under `dir` (compressed when asked) and page it through
    /// `budget`.
    fn paged(
        dir: &Path,
        s: &TimeSeries,
        budget: &CacheBudgetHandle,
        prefetch: usize,
        compress: bool,
    ) -> OutOfCoreSeries {
        let paths = write_series_with(dir, "f", s, compress).unwrap();
        OutOfCoreSeries::open_with(paths, budget, prefetch).unwrap()
    }

    #[test]
    fn create_and_read_frames() {
        let dir = tmpdir("basic");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(2), 0, false);
        assert_eq!(ooc.len(), 6);
        assert_eq!(ooc.dims(), Dims3::cube(8));
        assert_eq!(ooc.steps(), &[0, 10, 20, 30, 40, 50]);
        for i in 0..6 {
            assert_eq!(ooc.frame(i).unwrap().as_slice()[0], i as f32);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cache_respects_capacity() {
        let dir = tmpdir("cap");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(2), 0, false);
        for i in 0..6 {
            let _ = ooc.frame(i).unwrap();
        }
        assert!(ooc.resident() <= 2, "resident {}", ooc.resident());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn repeated_access_hits_cache() {
        let dir = tmpdir("hits");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(3), 0, false);
        let _ = ooc.frame(0).unwrap();
        let _ = ooc.frame(0).unwrap();
        let _ = ooc.frame(0).unwrap();
        let st = ooc.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits, 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn lru_evicts_oldest() {
        let dir = tmpdir("lru");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(2), 0, false);
        let _ = ooc.frame(0).unwrap();
        let _ = ooc.frame(1).unwrap();
        let _ = ooc.frame(0).unwrap(); // refresh 0
        let _ = ooc.frame(2).unwrap(); // evicts 1
        let h0 = ooc.stats().hits;
        let _ = ooc.frame(0).unwrap(); // still resident -> hit
        let h1 = ooc.stats().hits;
        assert_eq!(h1, h0 + 1);
        let m0 = ooc.stats().misses;
        let _ = ooc.frame(1).unwrap(); // was evicted -> miss
        let m1 = ooc.stats().misses;
        assert_eq!(m1, m0 + 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_from_paths_matches_created() {
        let dir = tmpdir("open");
        let s = sample_series();
        let created = paged(&dir, &s, &CacheBudgetHandle::frames(2), 0, false);
        let paths: Vec<PathBuf> = created.paths().to_vec();
        let opened = OutOfCoreSeries::open(paths, 2).unwrap();
        assert_eq!(opened.steps(), created.steps());
        assert_eq!(opened.load_all().unwrap(), s);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_rejects_empty_and_mixed_dims_with_typed_errors() {
        assert!(matches!(
            OutOfCoreSeries::open(Vec::new(), 2),
            Err(IoError::NoFrames)
        ));
        let dir = tmpdir("mixed");
        let mut paths = crate::io::write_series(&dir, "a", &sample_series()).unwrap();
        let small = TimeSeries::from_frames(vec![(60, ScalarVolume::filled(Dims3::cube(4), 0.0))]);
        paths.extend(crate::io::write_series(&dir, "b", &small).unwrap());
        match OutOfCoreSeries::open(paths.clone(), 2) {
            Err(IoError::DimsMismatch {
                path,
                expected,
                got,
            }) => {
                assert_eq!(path, paths[6]);
                assert_eq!((expected, got), (Dims3::cube(8), Dims3::cube(4)));
            }
            other => panic!("expected DimsMismatch, got {:?}", other.map(|s| s.len())),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn frame_at_step_lookup() {
        let dir = tmpdir("step");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(2), 0, false);
        assert_eq!(ooc.frame_at_step(30).unwrap().unwrap().as_slice()[0], 3.0);
        assert!(ooc.frame_at_step(31).unwrap().is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_frame_file_is_an_error_not_a_panic() {
        let dir = tmpdir("gone");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(1), 0, false);
        // Delete one raw file behind the cache's back.
        std::fs::remove_file(&ooc.paths()[3]).unwrap();
        assert!(ooc.frame(3).is_err(), "deleted frame must surface as Err");
        // Other frames still load.
        assert!(ooc.frame(0).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_frame_is_an_error() {
        let dir = tmpdir("corrupt");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(1), 0, false);
        std::fs::write(&ooc.paths()[2], [1u8, 2, 3]).unwrap(); // truncated
        assert!(ooc.frame(2).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn arc_keeps_evicted_frame_alive() {
        let dir = tmpdir("arc");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(1), 0, false);
        let held = ooc.frame(0).unwrap();
        let _ = ooc.frame(1).unwrap(); // evicts frame 0 from the cache
                                       // The caller's Arc still works even though the cache dropped it.
        assert_eq!(held.as_slice()[0], 0.0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stats_track_evictions_and_high_water() {
        let dir = tmpdir("stats");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(2), 0, false);
        assert_eq!(ooc.capacity(), 2);
        for i in 0..6 {
            let _ = ooc.frame(i).unwrap();
        }
        let st = ooc.stats();
        assert_eq!(st.hits, 0);
        assert_eq!(st.misses, 6);
        assert_eq!(st.evictions, 4);
        assert_eq!(st.resident, 2);
        assert_eq!(st.resident_high_water, 2);
        assert_eq!(st.bytes_paged, 6 * FB);
        assert_eq!(st.resident_bytes, 2 * FB);
        assert_eq!(st.resident_high_water_bytes, 2 * FB);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn byte_budget_bounds_resident_bytes() {
        let dir = tmpdir("bytebudget");
        let s = sample_series();
        // Room for exactly three frames.
        let budget = CacheBudgetHandle::bytes(3 * FB);
        let ooc = paged(&dir, &s, &budget, 0, false);
        assert_eq!(ooc.capacity(), 3);
        for i in 0..6 {
            let _ = ooc.frame(i).unwrap();
        }
        let st = ooc.stats();
        assert_eq!(st.resident, 3);
        assert_eq!(st.resident_bytes, 3 * FB);
        assert!(st.resident_high_water_bytes <= 3 * FB);
        assert_eq!(st.evictions, 3);
        // True LRU under byte charging: the last three frames are resident.
        let h0 = ooc.stats().hits;
        let _ = ooc.frame(3).unwrap();
        let _ = ooc.frame(4).unwrap();
        let _ = ooc.frame(5).unwrap();
        let st = ooc.stats();
        assert_eq!(st.hits, h0 + 3, "frames 3..6 must all be hits");
        assert_eq!(st.misses, 6);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sub_frame_byte_budget_still_makes_progress() {
        let dir = tmpdir("tiny");
        let s = sample_series();
        let budget = CacheBudgetHandle::bytes(FB / 2);
        let ooc = paged(&dir, &s, &budget, 0, false);
        assert_eq!(ooc.capacity(), 1);
        for i in 0..6 {
            assert_eq!(ooc.frame(i).unwrap().as_slice()[0], i as f32);
        }
        // The single-frame floor: never more than one frame despite the
        // sub-frame budget.
        assert!(ooc.stats().resident_high_water <= 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shared_budget_evicts_across_series() {
        let dir = tmpdir("shared");
        let s = sample_series();
        let budget = CacheBudgetHandle::new(CacheBudget::Frames(2));
        let a = paged(&dir.join("a"), &s, &budget, 0, false);
        let b = paged(&dir.join("b"), &s, &budget, 0, false);
        let _ = a.frame(0).unwrap();
        let _ = a.frame(1).unwrap();
        assert_eq!(a.resident(), 2);
        // Loading into `b` must evict from `a`: the budget is global.
        let _ = b.frame(0).unwrap();
        assert_eq!(a.resident() + b.resident(), 2);
        assert_eq!(a.stats().evictions, 1, "a's LRU frame paid for b's load");
        let bs = budget.stats();
        assert_eq!(bs.resident_frames, 2);
        assert!(bs.high_water_frames <= 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dropping_a_series_returns_its_frames_to_the_shared_budget() {
        let dir = tmpdir("dropped");
        let s = sample_series();
        let budget = CacheBudgetHandle::bytes(2 * FB);
        let a = paged(&dir.join("a"), &s, &budget, 0, false);
        let b = paged(&dir.join("b"), &s, &budget, 0, false);
        let _ = a.frame(0).unwrap();
        let _ = a.frame(1).unwrap();
        assert_eq!(budget.stats().resident_frames, 2);
        drop(a);
        let bs = budget.stats();
        assert_eq!((bs.resident_frames, bs.resident_bytes), (0, 0));
        for i in 0..6 {
            assert_eq!(b.frame(i).unwrap().as_slice()[0], i as f32);
        }
        let bs = budget.stats();
        assert_eq!(bs.resident_frames, 2, "b pages up to the budget");
        assert!(bs.high_water_frames <= 2, "{bs:?}");
        assert!(bs.high_water_bytes <= 2 * FB, "{bs:?}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dropped_series_leave_no_accounts_in_the_budget() {
        let dir = tmpdir("churn");
        let paths = write_series_with(&dir, "f", &sample_series(), false).unwrap();
        let budget = CacheBudgetHandle::bytes(3 * FB);
        for k in 0..1000 {
            let s = OutOfCoreSeries::open_with(paths.clone(), &budget, 0).unwrap();
            s.set_quota(Some(2 * FB));
            let _active = s.activity();
            let _ = s.frame(k % 6).unwrap();
        }
        let st = budget.0.lock();
        assert!(st.series.is_empty(), "{} series accounts", st.series.len());
        assert!(st.frames.is_empty() && st.inflight.is_empty());
        drop(st);
        let bs = budget.stats();
        assert_eq!((bs.resident_frames, bs.resident_bytes), (0, 0));
        assert_eq!((bs.inflight_frames, bs.inflight_bytes), (0, 0));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn group_quota_evicts_own_frames_first() {
        let dir = tmpdir("quota");
        let s = sample_series();
        // Roomy global budget: quota pressure, not global pressure, must
        // drive every eviction in this test.
        let budget = CacheBudgetHandle::frames(8);
        let a = paged(&dir.join("a"), &s, &budget, 0, false);
        let b = paged(&dir.join("b"), &s, &budget, 0, false);
        a.set_quota(Some(2 * FB));
        // b establishes residency first; a's quota churn must not touch it.
        let _ = b.frame(0).unwrap();
        let _ = b.frame(1).unwrap();
        for i in 0..6 {
            let _ = a.frame(i).unwrap();
        }
        // The per-series bound and the global bound hold simultaneously.
        let ga = a.residency();
        assert!(
            ga.high_water_bytes <= 2 * FB,
            "series a high-water {} exceeds its quota",
            ga.high_water_bytes
        );
        assert_eq!(ga.resident_bytes, 2 * FB);
        assert_eq!(ga.quota_evictions, 4, "frames 0..4 paid for 2..6");
        let bs = budget.stats();
        assert!(bs.high_water_frames <= 8);
        assert_eq!(bs.quota_evictions, 4);
        // Quota-local, not global: b kept everything, a evicted only its own.
        assert_eq!(b.stats().evictions, 0, "b must be untouched by a's quota");
        assert_eq!(a.stats().evictions, 4);
        assert_eq!(a.resident(), 2);
        assert_eq!(b.resident(), 2);
        assert_eq!(b.residency().quota_evictions, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sub_frame_group_quota_still_makes_progress() {
        let dir = tmpdir("quotafloor");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(8);
        let a = paged(&dir, &s, &budget, 0, false);
        a.set_quota(Some(FB / 2));
        // The per-series single-frame floor: reads proceed, one frame at a
        // time, despite a quota smaller than any frame.
        for i in 0..6 {
            assert_eq!(a.frame(i).unwrap().as_slice()[0], i as f32);
        }
        assert!(a.residency().high_water_bytes <= FB);
        assert_eq!(a.resident(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn eviction_prefers_idle_groups_over_active_ones() {
        let dir = tmpdir("idleevict");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(2);
        let a = paged(&dir.join("a"), &s, &budget, 0, false);
        let b = paged(&dir.join("b"), &s, &budget, 0, false);
        let _ = a.frame(0).unwrap(); // globally least recent
        let _ = b.frame(0).unwrap();
        // a is active, b idle: the next eviction must take b's frame even
        // though a holds the global LRU.
        let active = a.activity();
        assert_eq!(a.residency().active, 1);
        let _ = a.frame(1).unwrap();
        assert_eq!(a.resident(), 2, "active series kept its LRU frame");
        assert_eq!(b.resident(), 0, "idle series' frame was the victim");
        let bs = budget.stats();
        assert_eq!(bs.idle_evictions, 1, "the eviction was redirected");
        assert!(bs.high_water_frames <= 2, "the global bound still holds");
        // Once a goes idle again, plain global LRU resumes: b's next load
        // takes a's oldest frame.
        drop(active);
        assert_eq!(a.residency().active, 0);
        let _ = b.frame(0).unwrap();
        assert_eq!(a.resident(), 1);
        assert_eq!(b.resident(), 1);
        assert_eq!(
            budget.stats().idle_evictions,
            1,
            "no redirect when all idle"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn prefetch_warms_cache_and_counts_hits() {
        let dir = tmpdir("prefetch");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(4);
        let ooc = paged(&dir, &s, &budget, 2, false);
        assert_eq!(ooc.prefetch_depth(), 2);
        ooc.request_prefetch(&[0, 1, 2, 3]); // clamped to depth 2
                                             // Wait for the worker to commit both frames.
        for _ in 0..200 {
            if ooc.stats().prefetched == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let st = ooc.stats();
        assert_eq!(st.prefetched, 2, "depth clamps the request to two frames");
        assert_eq!(st.misses, 0, "prefetch loads are not demand misses");
        let _ = ooc.frame(0).unwrap();
        let _ = ooc.frame(1).unwrap();
        let st = ooc.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.prefetch_hits, 2);
        assert_eq!(st.misses, 0);
        // Re-requesting resident frames is a prefetch miss (skip).
        ooc.request_prefetch(&[0]);
        for _ in 0..200 {
            if ooc.stats().prefetch_misses == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ooc.stats().prefetch_misses, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn prefetch_respects_budget_high_water() {
        let dir = tmpdir("prefhw");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(2);
        let ooc = paged(&dir, &s, &budget, 4, false);
        // Walk the series with aggressive read-ahead; the budget (which
        // charges in-flight reads too) must never be exceeded.
        for i in 0..6 {
            ooc.request_prefetch(&[i + 1, i + 2, i + 3, i + 4]);
            let _ = ooc.frame(i).unwrap();
        }
        let st = ooc.stats();
        assert!(
            st.resident_high_water <= 2,
            "high water {} exceeds budget",
            st.resident_high_water
        );
        assert!(st.prefetch_wasted <= st.prefetched);
        assert_eq!(st.hits + st.misses, 6);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fault_hook_retries_transient_errors() {
        let dir = tmpdir("fault");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(2), 0, false);
        // Fail the first two attempts of every read of frame 3.
        ooc.set_read_fault_hook(Some(Arc::new(|frame, attempt| {
            (frame == 3 && attempt <= 2).then_some(ReadFault::Error)
        })));
        assert_eq!(ooc.frame(3).unwrap().as_slice()[0], 3.0);
        assert_eq!(ooc.stats().read_retries, 2);
        // A permanently failing frame still surfaces an error after the
        // bounded retries.
        ooc.set_read_fault_hook(Some(Arc::new(|frame, _| {
            (frame == 4).then_some(ReadFault::Error)
        })));
        assert!(ooc.frame(4).is_err());
        ooc.set_read_fault_hook(None);
        assert!(ooc.frame(4).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn failed_prefetch_degrades_to_demand_load() {
        let dir = tmpdir("prefail");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(3);
        let ooc = paged(&dir, &s, &budget, 2, false);
        // Fail the first three read attempts of frame 1 (exhausting the
        // prefetch worker's retries), then succeed.
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        ooc.set_read_fault_hook(Some(Arc::new(move |frame, _| {
            (frame == 1 && c.fetch_add(1, Ordering::SeqCst) < 3).then_some(ReadFault::Error)
        })));
        ooc.request_prefetch(&[1]);
        // Wait until the worker has given up (three failed attempts).
        for _ in 0..400 {
            if calls.load(Ordering::SeqCst) >= 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Demand still gets the frame; the failed prefetch left no trace
        // beyond retry counters and an unreserved budget.
        assert_eq!(ooc.frame(1).unwrap().as_slice()[0], 1.0);
        let st = ooc.stats();
        assert_eq!(st.prefetched, 0);
        assert_eq!(st.misses, 1);
        let bs = budget.stats();
        assert_eq!(bs.inflight_frames, 0, "failed prefetch must release");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn global_range_cached_scans_once() {
        let dir = tmpdir("range");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(1), 0, false);
        assert_eq!(ooc.global_range_cached().unwrap(), s.global_range());
        let misses_before = ooc.stats().misses;
        assert_eq!(ooc.global_range_cached().unwrap(), s.global_range());
        let misses_after = ooc.stats().misses;
        assert_eq!(misses_before, misses_after, "second call must be memoized");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn load_all_roundtrips() {
        let dir = tmpdir("all");
        let s = sample_series();
        let ooc = paged(&dir, &s, &CacheBudgetHandle::frames(1), 0, false);
        assert_eq!(ooc.load_all().unwrap(), s);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compressed_series_charges_compressed_bytes() {
        let dir = tmpdir("zcharge");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(1);
        let ooc = paged(&dir, &s, &budget, 0, true);
        assert_eq!(ooc.load_all().unwrap(), s, "compressed paging is lossless");
        let st = ooc.stats();
        assert!(
            st.bytes_paged < 6 * FB,
            "constant frames must page fewer than raw bytes ({} vs {})",
            st.bytes_paged,
            6 * FB
        );
        // Charges come from the actual file sizes.
        let on_disk: u64 = ooc
            .paths()
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        assert_eq!(st.bytes_paged, on_disk);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn byte_budget_holds_more_compressed_frames() {
        let dir = tmpdir("zmore");
        let s = sample_series();
        // One raw frame's worth of budget holds several compressed frames.
        let budget = CacheBudgetHandle::bytes(FB);
        let ooc = paged(&dir, &s, &budget, 0, true);
        assert!(
            ooc.capacity() > 1,
            "capacity {} should exceed one frame under compression",
            ooc.capacity()
        );
        for i in 0..6 {
            let _ = ooc.frame(i).unwrap();
        }
        let st = ooc.stats();
        assert!(st.resident > 1);
        assert!(st.resident_high_water_bytes <= FB);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mmap_series_matches_copied_reads() {
        let dir = tmpdir("mmap");
        let s = sample_series();
        let created = paged(&dir, &s, &CacheBudgetHandle::frames(2), 0, false);
        let budget = CacheBudgetHandle::frames(2);
        let ooc = OutOfCoreSeries::open_mmap(created.paths().to_vec(), &budget, 0).unwrap();
        assert!(ooc.is_mmap());
        assert_eq!(ooc.load_all().unwrap(), s);
        assert_eq!(
            ooc.frame(0).unwrap().is_mapped(),
            crate::mmapio::Mapping::supported()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mmap_rejects_compressed_frames_up_front() {
        let dir = tmpdir("mmapz");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(2);
        let ooc = paged(&dir, &s, &budget, 0, true);
        assert!(matches!(
            OutOfCoreSeries::open_mmap(ooc.paths().to_vec(), &budget, 0),
            Err(IoError::UnsupportedDtype(_))
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_compressed_frame_is_typed_codec_error() {
        let dir = tmpdir("zcorrupt");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(1);
        let ooc = paged(&dir, &s, &budget, 0, true);
        let p = ooc.paths()[2].clone();
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x5a;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(ooc.frame(2), Err(IoError::Codec(_))));
        // Other frames still load fine.
        assert!(ooc.frame(0).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }
}
