//! The host-speed reference. On a shared host, other tenants change how
//! fast every instruction here runs from one second to the next, and by
//! 10–40% over minutes — more than a change to the program usually moves
//! it. So a run also times a fixed piece of reference work, interleaved
//! with its ops and owned by this benchmark (no change to the program
//! touches it), and scales its times to a host that runs the reference in
//! [`NOMINAL_MS`].
//!
//! The reference does the kinds of work the simulator and planner do: a
//! discrete-event loop over a binary heap and an ordered map, `f64`
//! arithmetic and short-lived allocations.

// lint: allow-file(wall-clock)
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Events one slice of reference work processes.
const EVENTS: u64 = 10_000;

/// Share of a run's wall time spent on reference work.
const SHARE: f64 = 0.05;

/// Milliseconds one slice takes on the host the bounds were set on (a
/// 2-vCPU Intel Xeon VM), alone or two at once.
const NOMINAL_MS: f64 = 1.7;

/// One slice of reference work; returns a checksum so none of it is
/// optimised away.
fn slice() -> u64 {
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..EVENTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x % 1_000_000, i)));
        if heap.len() > 512 {
            let Reverse((t, j)) = heap.pop().expect("heap is not empty");
            map.insert(t ^ j, (t as f64).sqrt() * 1.000_1);
        }
        if map.len() > 2048 {
            let (_, v) = map.pop_first().expect("map is not empty");
            acc += v;
        }
        if i % 64 == 0 {
            let v: Vec<u64> = (0..32).map(|k| x.rotate_left(k)).collect();
            acc += black_box(v).iter().map(|&w| (w >> 40) as f64).sum::<f64>() * 1e-9;
        }
    }
    acc.to_bits() ^ heap.len() as u64 ^ map.len() as u64
}

/// The statistic a time is: a time is scaled by the same statistic of the
/// reference. A mean over a run counts the stalls that hit the reference
/// slices and the ops alike; a median passes over them in both.
#[derive(Clone, Copy, Debug)]
pub enum Stat {
    Mean,
    Median,
}

/// Times one slice, in ms.
fn timed_slice() -> f64 {
    let t = Instant::now();
    black_box(slice());
    t.elapsed().as_secs_f64() * 1e3
}

/// Reference slices spread over a run, each round of them run side by
/// side on as many threads as the workload keeps busy, so the rounds
/// sample the cores the ops ran on.
pub struct Reference {
    threads: usize,
    start: Instant,
    spent_s: f64,
    /// Time of each slice, ms.
    pub slices_ms: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::on_threads(1)
    }
}

impl Reference {
    pub fn on_threads(threads: usize) -> Self {
        Reference {
            threads,
            start: Instant::now(),
            spent_s: 0.0,
            slices_ms: Vec::new(),
        }
    }

    /// Runs rounds of slices until reference work has taken [`SHARE`] of
    /// the time since this reference began. Called between ops, it samples
    /// the host's speed at the times the ops ran.
    pub fn tick(&mut self) {
        while self.spent_s < SHARE * self.start.elapsed().as_secs_f64() {
            let t = Instant::now();
            std::thread::scope(|scope| {
                let others: Vec<_> = (1..self.threads)
                    .map(|_| scope.spawn(timed_slice))
                    .collect();
                self.slices_ms.push(timed_slice());
                for h in others {
                    self.slices_ms.push(h.join().expect("reference slice"));
                }
            });
            self.spent_s += t.elapsed().as_secs_f64();
        }
    }

    /// How fast this host ran the reference, relative to the nominal host,
    /// by statistic `stat` of the slice times: a time measured here times
    /// this is the time on the nominal host.
    pub fn speed(&self, stat: Stat) -> f64 {
        let mut ms = self.slices_ms.clone();
        ms.sort_by(f64::total_cmp);
        let typical = match stat {
            Stat::Mean => ms.iter().sum::<f64>() / ms.len() as f64,
            Stat::Median => ms[(ms.len() - 1) / 2],
        };
        NOMINAL_MS / typical
    }

    /// Adds `other`'s slices to this one's.
    pub fn merge(&mut self, other: Reference) {
        self.slices_ms.extend(other.slices_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_fixed() {
        assert_eq!(slice(), slice());
    }

    #[test]
    fn a_round_runs_one_slice_per_thread() {
        let mut r = Reference::on_threads(2);
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.tick();
        assert!(!r.slices_ms.is_empty() && r.slices_ms.len().is_multiple_of(2));
    }

    #[test]
    fn ticks_keep_reference_work_to_its_share() {
        let mut r = Reference::default();
        std::thread::sleep(std::time::Duration::from_millis(200));
        r.tick();
        assert!(!r.slices_ms.is_empty());
        let spent: f64 = r.slices_ms.iter().sum();
        assert!(spent >= SHARE * 200.0);
        r.tick();
        assert!(r.slices_ms.iter().sum::<f64>() < spent + 10.0 * NOMINAL_MS);
    }
}
