//! The traced run's span recorder.
//!
//! A span is one call into a layer, timed from outside: `{op, name,
//! parent, start_ns, end_ns}`. Spans stay in memory and are written once,
//! at exit. Work a layer reports as a duration rather than a call (the
//! plan cache's per-section compute time) becomes a span laid end to end
//! from its caller's start. Where the caller did that work itself, the
//! span is its child, so the caller's self time — its duration minus the
//! part of it that its children cover — is the caller's own work.
//!
//! A recorder that is off records nothing, so one code path serves the
//! timed run and the traced run.

// lint: allow-file(wall-clock)
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Span {
    pub op: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder. Span ids are indices into its list.
pub struct Spans {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    /// The span [`Spans::after`] last laid a span after, and where that
    /// span ends.
    laid: Option<(usize, u64)>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans {
            epoch: None,
            spans: Vec::new(),
            laid: None,
        }
    }

    /// A recording recorder; times are nanoseconds since `epoch`.
    pub fn on(epoch: Instant) -> Self {
        Spans {
            epoch: Some(epoch),
            spans: Vec::new(),
            laid: None,
        }
    }

    /// An empty recorder on this one's epoch, recording if this one does.
    pub fn sibling(&self) -> Spans {
        Spans {
            epoch: self.epoch,
            spans: Vec::new(),
            laid: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Nanoseconds since the epoch (0 when off).
    pub fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// Adds a top-level span timed elsewhere (against this epoch) and
    /// returns its id.
    pub fn record(&mut self, op: usize, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        self.push(op, name, None, start_ns, end_ns)
    }

    fn push(
        &mut self,
        op: usize,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        if self.is_on() {
            self.spans.push(Span {
                op,
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Times `f` as a top-level span of op `op`.
    pub fn time<R>(&mut self, op: usize, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        (r, self.record(op, name, start_ns, end_ns))
    }

    /// Adds a span lasting `secs` in span `at`'s op, starting where the
    /// previous span laid after `at` ends, or at `at`'s start. It is a
    /// child of `at` when `nested`, else a top-level span.
    pub fn after(&mut self, at: usize, nested: bool, name: &'static str, secs: f64) {
        if !self.is_on() {
            return;
        }
        let anchor = self.spans[at];
        let start_ns = match self.laid {
            Some((prev, end_ns)) if prev == at => end_ns,
            _ => anchor.start_ns,
        };
        let end_ns = start_ns + (secs.max(0.0) * 1e9) as u64;
        self.push(anchor.op, name, nested.then_some(at), start_ns, end_ns);
        self.laid = Some((at, end_ns));
    }

    /// Duration of span `id` in seconds (0 when off).
    pub fn secs(&self, id: usize) -> f64 {
        self.spans
            .get(id)
            .filter(|_| self.is_on())
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Appends `other`'s spans (recorded against the same epoch).
    pub fn extend(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Per span name: total self time in ms divided by the number of ops
    /// that contain such a span — the layer's cost per op that uses it.
    pub fn self_ms_per_op(&self) -> BTreeMap<&'static str, f64> {
        let mut total: BTreeMap<&'static str, (f64, BTreeSet<usize>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns(&self.spans)) {
            let e = total.entry(s.name).or_default();
            e.0 += own as f64 * 1e-6;
            e.1.insert(s.op);
        }
        total
            .into_iter()
            .map(|(name, (ms, ops))| (name, ms / ops.len() as f64))
            .collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.spans).expect("spans serialize")
    }
}

/// Each span's duration minus the union of its direct children's
/// intervals, clipped to the span. Children may nest or overlap.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, mut intervals)| {
            intervals.sort_unstable();
            let (mut covered, mut reached) = (0, s.start_ns);
            for (a, b) in intervals {
                let (a, b) = (a.max(reached), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reached = b;
                }
            }
            s.end_ns - s.start_ns - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),  // overlaps a
            span("c", Some(2), 40, 45),  // nested in b: not a child of root
            span("d", Some(0), 25, 28),  // inside a and b
            span("e", Some(0), 90, 120), // runs past the parent
        ];
        assert_eq!(self_ns(&spans), vec![50, 20, 25, 5, 3, 30]);
    }

    #[test]
    fn child_durations_are_laid_end_to_end() {
        let mut s = Spans::on(Instant::now());
        let (_, root) = s.time(3, "root", || ());
        s.after(root, true, "x", 0.5);
        s.after(root, true, "y", 0.25);
        s.after(root, false, "z", 0.5);
        let [r, x, y] = [s.spans[0], s.spans[1], s.spans[2]];
        assert_eq!(
            (x.start_ns, x.end_ns - x.start_ns),
            (r.start_ns, 500_000_000)
        );
        assert_eq!((y.start_ns, y.end_ns - y.start_ns), (x.end_ns, 250_000_000));
        assert_eq!((y.op, y.parent), (3, Some(root)));
        let z = s.spans[3];
        assert_eq!((z.start_ns, z.parent), (y.end_ns, None));
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut s = Spans::off();
        let (v, id) = s.time(0, "root", || 7);
        s.after(id, true, "x", 1.0);
        assert_eq!((v, s.secs(id)), (7, 0.0));
        assert!(s.spans.is_empty());
    }

    #[test]
    fn per_op_means_count_each_op_once() {
        let mut s = Spans::on(Instant::now());
        s.spans = vec![
            Span {
                op: 0,
                ..span("p", None, 0, 1_000_000)
            },
            Span {
                op: 0,
                ..span("p", None, 0, 1_000_000)
            },
            Span {
                op: 1,
                ..span("p", None, 0, 2_000_000)
            },
        ];
        assert_eq!(s.self_ms_per_op()["p"], 2.0);
    }
}
