//! Per-time-step parallel processing.
//!
//! The paper's conclusion: "the processing of each time step is completely
//! independent of other time steps, it is feasible and desirable to employ a
//! large PC cluster to conduct the final feature extraction and rendering
//! concurrently." On a single machine the same independence lets frames fan
//! out across a thread pool; the scaling bench measures exactly this.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A process-wide pool per thread count, built on first use.
///
/// Scaling studies and the `--threads` CLI knob request the same counts over
/// and over; spawning a fresh pool's worth of OS threads per call dominates
/// small per-frame workloads, so pools are cached for the process lifetime.
/// `threads == 0` (rayon's default sizing) is also cached under its own key.
pub fn pool_with_threads(threads: usize) -> Arc<rayon::ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = pools.lock().expect("thread-pool cache poisoned");
    Arc::clone(map.entry(threads).or_insert_with(|| {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("failed to build thread pool"),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_cached_per_count() {
        let a = pool_with_threads(2);
        let b = pool_with_threads(2);
        assert!(Arc::ptr_eq(&a, &b), "same count must reuse the pool");
        let c = pool_with_threads(3);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
