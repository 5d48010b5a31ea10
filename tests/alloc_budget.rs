//! Heap allocations per task on the cold path the scale-100k benchmark
//! workload takes: `preflight` + `Pdc::decide` + `try_execute`.
//!
//! Inside that path each task is identified by its flat id; a task name is
//! built only where a report, a diagnostic or a trace record prints one.
//! A counting global allocator holds the path to a per-task budget, so a
//! per-task `String`, `format!` or per-phase `Vec` that creeps back in
//! fails here, at any optimisation level. Allocations are counted per
//! thread, so whatever else the test harness does is not charged.

use mashup_bench::scale::{self, Shape};
use mashup_core::{preflight, try_execute, MashupConfig, Pdc, PlanCache};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The budget: allocations per task across the three calls.
const BUDGET_PER_TASK: f64 = 2.0;
const TASKS: usize = 10_000;

/// Allocations per task of each call, in order, for one cold run.
fn per_task(shape: Shape) -> [f64; 3] {
    let w = scale::workflow(shape, TASKS);
    let n = w.task_count() as f64;
    let cfg = MashupConfig::aws(8).with_seed(42);
    let pdc = Pdc::new(cfg.clone())
        .with_cache(Arc::new(PlanCache::new()))
        .with_probe_sharing(true);

    let a0 = allocs();
    preflight(&cfg, &w, None).expect("generated DAGs pass the checks");
    let a1 = allocs();
    let report = pdc.decide(&w);
    let a2 = allocs();
    let tuned = cfg.clone().with_subclusters(report.subclusters);
    let run = try_execute(&tuned, &w, &report.plan, "mashup").expect("its plan passes");
    let a3 = allocs();
    assert_eq!(run.tasks.len(), w.task_count());
    [
        (a1 - a0) as f64 / n,
        (a2 - a1) as f64 / n,
        (a3 - a2) as f64 / n,
    ]
}

#[test]
fn cold_path_allocations_per_task_stay_within_budget() {
    let measured = [Shape::FanOut, Shape::Chain].map(|shape| (shape, per_task(shape)));
    for (shape, [check, decide, execute]) in measured {
        println!(
            "{}: preflight {check:.2} + decide {decide:.2} + execute {execute:.2} \
             = {:.2} allocations per task",
            shape.name(),
            check + decide + execute
        );
    }
    for (shape, [check, decide, execute]) in measured {
        let total = check + decide + execute;
        assert!(
            total <= BUDGET_PER_TASK,
            "{}: {total:.2} allocations per task (preflight {check:.2}, decide {decide:.2}, \
             execute {execute:.2}) exceeds the budget of {BUDGET_PER_TASK}",
            shape.name()
        );
    }
}
