//! Closed-loop load-test harness for the planning service.
//!
//! A *closed loop* means each simulated client has exactly one request in
//! flight: it submits, blocks on the [`Ticket`], records the latency, and
//! only then issues its next request. Offered load is therefore controlled
//! by the client count (`parallelism`), not an open-loop arrival rate, and
//! a bounded queue never overflows from the harness itself (at most
//! `parallelism` requests are queued or running at once).
//!
//! The harness reports wall-clock throughput and nearest-rank latency
//! percentiles per sweep point, plus a worker-scaling series on a
//! warm-cache mix. This module is the one place in the serving stack that
//! reads the host clock — simulated substrates stay wall-clock-free (see
//! `cargo xtask lint`), which is exactly what makes a "run" here a pure,
//! timeable unit of work.
//!
//! [`Ticket`]: crate::service::Ticket

use crate::service::{
    PlanRequest, PlanService, RequestKind, ServiceConfig, ServiceStats, WorkflowName,
};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
// The load-test harness measures real service latency by design — its
// output is observability, not simulated results; lint: allow(wall-clock)
use std::time::Instant;

/// One sweep point's knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LoadTestSpec {
    /// Requests to complete.
    pub requests: usize,
    /// Concurrent closed-loop clients.
    pub parallelism: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Queue depth (admission limit).
    pub queue_depth: usize,
    /// Pre-warm the plan cache serially with one request of each distinct
    /// shape before timing, so the timed region measures steady-state
    /// serving rather than first-touch profiling.
    pub warm: bool,
}

impl Default for LoadTestSpec {
    fn default() -> Self {
        LoadTestSpec {
            requests: 100,
            parallelism: 8,
            workers: crate::pool::jobs(),
            queue_depth: 1024,
            warm: true,
        }
    }
}

/// Measured results for one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LoadPoint {
    /// Requests asked for.
    pub requests: usize,
    /// Closed-loop clients.
    pub parallelism: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Replies with status `Done`.
    pub completed: usize,
    /// Replies with status `Refused` (static analysis).
    pub refused: usize,
    /// Submissions rejected by admission control.
    pub rejected: usize,
    /// Timed-region wall time, seconds.
    pub elapsed_secs: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Plan-cache hit percentage over the whole point (warm-up included).
    pub cache_hit_pct: f64,
}

/// One worker-scaling measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScalingPoint {
    /// Service worker threads.
    pub workers: usize,
    /// Completed requests per second at this worker count.
    pub throughput_rps: f64,
    /// Throughput relative to the 1-worker run.
    pub speedup: f64,
}

/// The full load-test report (`results/BENCH_serve.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LoadTestReport {
    /// Cores available on the measuring host — the ceiling on CPU-bound
    /// worker scaling; speedups saturate near this number.
    pub host_cores: usize,
    /// Closed-loop clients used for the request-count sweep.
    pub parallelism: usize,
    /// Worker threads used for the request-count sweep.
    pub workers: usize,
    /// One point per request count.
    pub points: Vec<LoadPoint>,
    /// Warm-cache throughput at increasing worker counts.
    pub scaling: Vec<ScalingPoint>,
}

/// The deterministic request mix: cycles the six workflows, three cluster
/// sizes, and eight tenants, with every fourth request a full `Run` and
/// the rest `Plan`. Pure in `i`, so every sweep point and worker count
/// replays the identical request stream.
pub fn request_mix(i: usize) -> PlanRequest {
    let workflow = WorkflowName::ALL[i % WorkflowName::ALL.len()];
    PlanRequest {
        tenant: format!("tenant-{}", i % 8),
        workflow,
        kind: if i % 4 == 3 {
            RequestKind::Run
        } else {
            RequestKind::Plan
        },
        nodes: [4, 8, 16][i % 3],
        // A fixed seed per workflow keeps the distinct-request set small
        // (and the cache effective), mirroring a service whose tenants
        // re-plan a stable portfolio of workflows.
        seed: 11,
    }
}

/// The number of consecutive `request_mix` indices that cover every
/// distinct (workflow, kind, nodes) shape: lcm(6, 4, 3).
pub const MIX_PERIOD: usize = 12;

/// Nearest-rank percentile (q in 0..=100) of an unsorted sample, in the
/// sample's own unit. Returns 0 for an empty sample.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// Runs one closed-loop point and returns its measurements.
pub fn run_point(spec: &LoadTestSpec) -> LoadPoint {
    let service = PlanService::new(ServiceConfig {
        queue_depth: spec.queue_depth,
    });
    if spec.warm {
        // One of each distinct request shape, processed serially: all
        // profiling stages are cached before the clock starts.
        for i in 0..MIX_PERIOD.min(spec.requests) {
            let _ = service.submit(request_mix(i)).expect("warm-up admitted");
        }
        service.drain(1);
    }

    let workers = spec.workers.max(1);
    let parallelism = spec.parallelism.max(1);
    let handles = service.spawn_workers(workers);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(spec.requests));
    let refused = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    let next_request = AtomicUsize::new(0);

    let started = Instant::now(); // lint: allow(wall-clock)
    std::thread::scope(|scope| {
        for _ in 0..parallelism {
            let service = &service;
            let latencies = &latencies;
            let refused = &refused;
            let rejected = &rejected;
            let next_request = &next_request;
            scope.spawn(move || {
                let mut mine = Vec::new();
                // Each client takes the next index of the one request
                // stream. A fixed stride (client c sending c, c+P, ...)
                // would give every `Run` (i % 4 == 3) to the clients with
                // c % 4 == 3 and leave the throughput to the slowest ones.
                loop {
                    let i = next_request.fetch_add(1, Ordering::Relaxed);
                    if i >= spec.requests {
                        break;
                    }
                    let t0 = Instant::now(); // lint: allow(wall-clock)
                    match service.submit(request_mix(i)) {
                        Ok(ticket) => {
                            let reply = ticket.wait();
                            mine.push(t0.elapsed().as_secs_f64() * 1e3);
                            if reply.status != crate::service::ReplyStatus::Done {
                                refused.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        Err(_) => {
                            rejected.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                latencies.lock().expect("latency lock").extend(mine);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    service.shutdown();
    for h in handles {
        h.join().expect("worker exits");
    }

    let mut latencies = latencies.into_inner().expect("latency lock");
    let completed = latencies.len();
    let mean = if completed == 0 {
        0.0
    } else {
        latencies.iter().sum::<f64>() / completed as f64
    };
    let stats: ServiceStats = service.stats();
    LoadPoint {
        requests: spec.requests,
        parallelism,
        workers,
        completed,
        refused: refused.into_inner(),
        rejected: rejected.into_inner(),
        elapsed_secs: elapsed,
        throughput_rps: if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        },
        p50_ms: percentile(&mut latencies, 50.0),
        p95_ms: percentile(&mut latencies, 95.0),
        p99_ms: percentile(&mut latencies, 99.0),
        max_ms: latencies.last().copied().unwrap_or(0.0),
        mean_ms: mean,
        cache_hit_pct: {
            let (h, m) = (stats.cache.hits(), stats.cache.misses());
            if h + m == 0 {
                0.0
            } else {
                h as f64 * 100.0 / (h + m) as f64
            }
        },
    }
}

/// Runs the full sweep: one [`LoadPoint`] per entry of `request_counts`
/// (all at `parallelism` clients and `workers` workers), then — when
/// `with_scaling` is set — the worker-scaling series on a warm-cache mix.
pub fn run_sweep(
    request_counts: &[usize],
    parallelism: usize,
    workers: usize,
    with_scaling: bool,
) -> LoadTestReport {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let points = request_counts
        .iter()
        .map(|&requests| {
            run_point(&LoadTestSpec {
                requests,
                parallelism: parallelism.min(requests.max(1)),
                workers,
                queue_depth: 1024,
                warm: true,
            })
        })
        .collect();
    LoadTestReport {
        host_cores,
        parallelism,
        workers,
        points,
        scaling: if with_scaling {
            run_scaling(&[1, 2, 4, 8, 16])
        } else {
            Vec::new()
        },
    }
}

/// Measures warm-cache throughput at each worker count and normalizes to
/// the 1-worker run. On a machine with C cores, CPU-bound speedup
/// saturates near C — the report records `host_cores` so readers can
/// interpret the plateau.
pub fn run_scaling(worker_counts: &[usize]) -> Vec<ScalingPoint> {
    let requests = 192;
    let mut base_rps = 0.0;
    worker_counts
        .iter()
        .map(|&workers| {
            let point = run_point(&LoadTestSpec {
                requests,
                parallelism: 32,
                workers,
                queue_depth: 1024,
                warm: true,
            });
            if workers == worker_counts[0] {
                base_rps = point.throughput_rps;
            }
            ScalingPoint {
                workers,
                throughput_rps: point.throughput_rps,
                speedup: if base_rps > 0.0 {
                    point.throughput_rps / base_rps
                } else {
                    0.0
                },
            }
        })
        .collect()
}

impl LoadTestReport {
    /// Renders the sweep and scaling series as CSV (two sections).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "requests,parallelism,workers,completed,refused,rejected,\
             elapsed_secs,throughput_rps,p50_ms,p95_ms,p99_ms,max_ms,mean_ms,cache_hit_pct\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.4},{:.2},{:.3},{:.3},{:.3},{:.3},{:.3},{:.1}\n",
                p.requests,
                p.parallelism,
                p.workers,
                p.completed,
                p.refused,
                p.rejected,
                p.elapsed_secs,
                p.throughput_rps,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
                p.max_ms,
                p.mean_ms,
                p.cache_hit_pct
            ));
        }
        out.push_str("\nworkers,throughput_rps,speedup\n");
        for s in &self.scaling {
            out.push_str(&format!(
                "{},{:.2},{:.2}\n",
                s.workers, s.throughput_rps, s.speedup
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&mut s, 50.0), 20.0);
        assert_eq!(percentile(&mut s, 95.0), 40.0);
        assert_eq!(percentile(&mut s, 100.0), 40.0);
        assert_eq!(percentile(&mut s, 1.0), 10.0);
        let mut empty: Vec<f64> = Vec::new();
        assert_eq!(percentile(&mut empty, 50.0), 0.0);
    }

    #[test]
    fn request_mix_is_pure_and_covers_all_workflows() {
        for i in 0..MIX_PERIOD {
            assert_eq!(request_mix(i), request_mix(i));
        }
        let mut seen: Vec<&str> = Vec::new();
        for i in 0..MIX_PERIOD {
            let r = request_mix(i);
            let name = match r.workflow {
                WorkflowName::Genome1000 => "g",
                WorkflowName::SraSearch => "s",
                WorkflowName::Epigenomics => "e",
                WorkflowName::SyntheticSmall => "ss",
                WorkflowName::SyntheticMedium => "sm",
                WorkflowName::SyntheticLarge => "sl",
            };
            if !seen.contains(&name) {
                seen.push(name);
            }
        }
        assert_eq!(seen.len(), 6);
        // Both kinds appear within one period.
        assert!((0..MIX_PERIOD).any(|i| request_mix(i).kind == RequestKind::Run));
        assert!((0..MIX_PERIOD).any(|i| request_mix(i).kind == RequestKind::Plan));
    }

    #[test]
    fn a_small_closed_loop_point_completes_every_request() {
        let point = run_point(&LoadTestSpec {
            requests: 8,
            parallelism: 4,
            workers: 2,
            queue_depth: 64,
            warm: true,
        });
        assert_eq!(point.completed, 8);
        assert_eq!(point.refused, 0);
        assert_eq!(point.rejected, 0);
        assert!(point.throughput_rps > 0.0);
        assert!(point.p50_ms <= point.p95_ms && point.p95_ms <= point.p99_ms);
        assert!(point.cache_hit_pct > 0.0, "warm-up must populate the cache");
    }
}
