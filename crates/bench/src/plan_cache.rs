//! The harness's process-wide planning cache.
//!
//! Every sweep cell that plans with the PDC (strategy runs, Fig. 9
//! placement maps, the accuracy table, the ablations) shares one
//! [`PlanCache`] so profiling work memoized by one cell is reused by every
//! other cell — across `--jobs N` workers too, since the cache is
//! concurrent. Sharing is the default; switched off (`--no-plan-cache` in
//! the `figures` binary) runs share nothing: each gets a fresh cache of
//! its own, and the run memo of [`crate::run_cells`] is neither read nor
//! written, so every strategy run executes. That measures the unshared
//! cost and is the reference that sharing never changes a result: reports
//! and traces are bit-identical either way (see `mashup_core::cache`), and
//! `tests/determinism.rs` enforces it.

use mashup_core::{CacheStats, MashupConfig, Pdc, PlanCache};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(true);
static CACHE: OnceLock<Arc<PlanCache>> = OnceLock::new();

/// Enables or disables sharing the planning cache and the run memo for
/// subsequent runs. Disabling clears no stored entries; it makes
/// [`plan_cache`] hand out a fresh cache per call and [`crate::run_cells`]
/// bypass its memo.
pub fn set_plan_cache_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// True when the planning cache and the run memo are shared.
pub fn plan_cache_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The shared planning cache, or a fresh one when sharing is disabled.
pub fn plan_cache() -> Arc<PlanCache> {
    if plan_cache_enabled() {
        CACHE.get_or_init(Arc::default).clone()
    } else {
        Arc::default()
    }
}

/// A planner over `cfg`, wired to [`plan_cache`].
pub fn cached_pdc(cfg: MashupConfig) -> Pdc {
    Pdc::new(cfg).with_cache(plan_cache())
}

/// Snapshot of the shared cache's counters (zeros if it was never used).
pub fn plan_cache_stats() -> CacheStats {
    match CACHE.get() {
        Some(c) => c.stats(),
        None => CacheStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sharing_hands_out_fresh_caches_and_reenabling_restores_it() {
        // Note: the flag is process-global, so restore it before exiting.
        set_plan_cache_enabled(false);
        assert!(!Arc::ptr_eq(&plan_cache(), &plan_cache()), "fresh caches");
        set_plan_cache_enabled(true);
        assert!(
            Arc::ptr_eq(&plan_cache(), &plan_cache()),
            "same shared instance"
        );
    }
}
