//! The shared worker pool: run independent engine executions on N threads.
//!
//! Every unit of work the workspace parallelizes — a figure-sweep scenario,
//! a planning-service request — is one *whole* simulated run. Runs are
//! internally single-threaded and deterministic (seeded event queue), and
//! each run owns its world, which is `Send`, so the natural parallelism is
//! one run per worker thread with no synchronization inside a run.
//!
//! [`par_map`] farms a work list over `std::thread::scope` workers and
//! returns results **in input order**, so output is byte-identical whatever
//! the worker count: determinism lives inside each run and the merge order
//! is fixed by the caller's list. The figure sweep (`mashup-bench`) and the
//! planning service (`crate::service`) both sit on this module, which keeps
//! one execution path to test and tune.
//!
//! The worker count comes from [`set_jobs`] (the figures binary's
//! `--jobs N`); `0` means one worker per available core.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global worker-count override: 0 = auto (one per available core).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the pool worker count. `0` restores auto (one per core).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The effective pool worker count.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Runs `f` over `items` on up to [`jobs`] worker threads and returns the
/// results in input order. Falls back to a plain serial map when one worker
/// (or one item) makes threading pointless. Panics in `f` propagate.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n_items = items.len();
    let n_workers = jobs().min(n_items);
    if n_workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items parked in slots so idle workers can claim strictly by index;
    // the index also keys the deterministic merge below.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    let slots = &slots;
    let next = &next;
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(n_items);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= slots.len() {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("slot lock")
                            .take()
                            .expect("each index is claimed exactly once");
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => collected.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    collected.sort_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global [`JOBS`] override —
    /// cargo runs tests in one binary concurrently, so an unguarded
    /// `set_jobs` would leak into sibling tests' `jobs()` reads. Restores
    /// auto mode on drop (panic included).
    struct JobsGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    impl JobsGuard {
        fn lock() -> Self {
            static LOCK: Mutex<()> = Mutex::new(());
            JobsGuard(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
        }
    }

    impl Drop for JobsGuard {
        fn drop(&mut self) {
            set_jobs(0);
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        // Uneven per-item work so completion order differs from input order.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(items, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_override_round_trips() {
        let _guard = JobsGuard::lock();
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn empty_and_single_item_lists_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![5u32], |x| x + 1), vec![6]);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let _guard = JobsGuard::lock();
        let items: Vec<u64> = (0..40).collect();
        set_jobs(1);
        let serial = par_map(items.clone(), |i| i * i + 1);
        set_jobs(4);
        let parallel = par_map(items, |i| i * i + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn whole_engine_runs_shard_across_workers() {
        // The motivating use: complete simulated runs on worker threads.
        use mashup_core::{CheckedWorkflow, Mashup, MashupConfig};
        let _guard = JobsGuard::lock();
        let w = mashup_workflows::generate(&mashup_workflows::SyntheticConfig::default(), 7);
        let w = CheckedWorkflow::new(w).expect("clean workflow");
        set_jobs(4);
        let reports = par_map(vec![2usize, 4, 8], |nodes| {
            let engine = Mashup::new(MashupConfig::aws(nodes));
            engine.run_checked(&w).expect("clean config").report
        });
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.makespan_secs > 0.0);
        }
    }
}
