//! Substrate micro-benchmarks: the two hot paths every figure funnels
//! through.
//!
//! * `link_contention_1000` — 1000 concurrent flows on one fair-share link
//!   with per-flow caps and completion churn, modelled on the 1000Genome
//!   *Individual* task (1252 components hammering the store link).
//! * `event_queue_cancel_storm` — a long run of cancel/reschedule pairs, the
//!   pattern of a link that cancels its completion event in every event
//!   that changes its transfer set, which stresses tombstone handling in the
//!   event queue.
//!
//! Run `BENCH_JSON=results/BENCH_sim.json cargo bench --bench sim_substrate`
//! to refresh the tracked numbers (see EXPERIMENTS.md).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mashup_sim::{SimDuration, Simulation};

/// 1000 staggered flows with heterogeneous per-flow caps on one link; each
/// burst of arrivals and each completion tick re-plans the next completion
/// over everything still in flight, once per event.
fn link_contention(flows: usize) -> f64 {
    let mut sim = Simulation::new();
    let link = sim.add_link("bench-fabric", 1.0e9);
    for i in 0..flows {
        // Arrivals in small same-instant bursts (8 per instant), like a
        // phase of components starting together.
        let at = SimDuration::from_secs((i / 8) as f64 * 1.0e-3);
        sim.schedule_in(at, move |_: &mut usize, sim| {
            let bytes = 1.0e6 + (i % 17) as f64 * 3.0e5;
            // A mix of capped (NIC-bound) and uncapped flows exercises both
            // sides of the water-filling split.
            let cap = if i % 3 == 0 { Some(2.0e6) } else { None };
            sim.start_transfer(link, bytes, cap, |done: &mut usize, _| *done += 1);
        });
    }
    let mut done = 0usize;
    sim.run(&mut done);
    assert_eq!(done, flows);
    sim.now().as_secs()
}

/// Schedule an event, then cancel and reschedule it repeatedly before
/// letting it fire — one tombstone per iteration in the old queue.
fn cancel_storm(events: usize) -> u64 {
    let mut sim = Simulation::<()>::new();
    let mut handle = None;
    for i in 0..events {
        if let Some(h) = handle.take() {
            sim.cancel(h);
        }
        let at = SimDuration::from_secs(1.0 + (i % 97) as f64 * 1.0e-4);
        handle = Some(sim.schedule_in(at, |_, _| {}));
        // is_idle is called by run loops and watchdogs; the old
        // implementation scanned every tombstone each time.
        black_box(sim.is_idle());
    }
    sim.run(&mut ());
    sim.events_processed()
}

fn bench_link_contention(c: &mut Criterion) {
    c.bench_function("link_contention_1000", |b| {
        b.iter(|| black_box(link_contention(1000)))
    });
}

fn bench_cancel_storm(c: &mut Criterion) {
    c.bench_function("event_queue_cancel_storm_50k", |b| {
        b.iter(|| black_box(cancel_storm(50_000)))
    });
}

criterion_group! {
    name = sim_substrate;
    config = Criterion::default().sample_size(10);
    targets = bench_link_contention, bench_cancel_storm
}
criterion_main!(sim_substrate);
