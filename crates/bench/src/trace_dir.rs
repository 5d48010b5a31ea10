//! Optional flight-recorder output for harness runs.
//!
//! When a trace directory is set (`--trace-dir` in the `figures` binary),
//! every strategy run of [`crate::run_cells`] records its execution and
//! writes one deterministic JSONL trace file into the directory; a cell
//! the run memo answers copies the file its first run wrote. File names are
//! `<scope>__<workflow>__n<nodes>__<strategy>__<digest>.jsonl`: the scope
//! is the figure being computed ([`set_trace_scope`]), the configured node
//! count tells the cells of a cluster-size sweep apart (a report's own
//! `cluster_nodes` reads 0 for a run that never used the cluster), and the
//! digest is taken over the trace itself, so a name depends on neither the
//! worker count nor the order in which parallel sweep workers (`--jobs N`)
//! finish, and two runs share a name only when they wrote the same bytes. Recording never
//! perturbs results — traced and untraced runs are byte-identical
//! (`tests/determinism.rs` enforces this on the figure outputs).

use mashup_core::{Fingerprinter, MashupConfig, TraceRecord};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

static DIR: OnceLock<PathBuf> = OnceLock::new();
static SCOPE: Mutex<&str> = Mutex::new("");

/// Directs all subsequent [`crate::run_cells`] runs to record their
/// executions as JSONL files under `dir` (created if missing). Can only be
/// set once per process; later calls are ignored.
pub fn set_trace_dir(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let _ = DIR.set(dir.to_path_buf());
}

/// The configured trace directory, if any.
pub fn trace_dir() -> Option<&'static Path> {
    DIR.get().map(PathBuf::as_path)
}

/// Names the figure the next traces belong to: their file names start
/// with it. The `figures` binary computes one figure at a time and sets
/// the scope before each.
pub fn set_trace_scope(scope: &'static str) {
    *SCOPE.lock().unwrap_or_else(|e| e.into_inner()) = scope;
}

/// A trace file one run wrote: the scope it was written under and its name
/// without that scope's prefix.
#[derive(Debug)]
pub(crate) struct TraceFile {
    scope: &'static str,
    name: String,
}

impl TraceFile {
    /// Copies the file under the current scope's name, so a run the memo
    /// answers leaves the file its own run would have written. No-op when
    /// the file is already there.
    pub(crate) fn copy_to_current_scope(&self) {
        let Some(dir) = trace_dir() else { return };
        let from = dir.join(scoped(self.scope, &self.name));
        let to = dir.join(scoped(current_scope(), &self.name));
        if from != to {
            std::fs::copy(&from, &to)
                .unwrap_or_else(|e| panic!("copy {} to {}: {e}", from.display(), to.display()));
        }
    }
}

fn current_scope() -> &'static str {
    *SCOPE.lock().unwrap_or_else(|e| e.into_inner())
}

fn scoped(scope: &str, name: &str) -> String {
    if scope.is_empty() {
        name.to_owned()
    } else {
        format!("{}__{name}", sanitize(scope))
    }
}

/// Writes `records` as one JSONL file for (`workflow`, `strategy`) on
/// `cfg`'s cluster under the configured directory, and says which file.
/// No-op when tracing is off.
pub(crate) fn write_trace(
    cfg: &MashupConfig,
    workflow: &str,
    strategy: &str,
    records: &[TraceRecord],
) -> Option<TraceFile> {
    let dir = trace_dir()?;
    let body = mashup_sim::trace::to_jsonl(records);
    let mut f = Fingerprinter::new("trace-file");
    f.write_str(&body);
    let file = TraceFile {
        scope: current_scope(),
        name: format!(
            "{}__n{}__{}__{:016x}.jsonl",
            sanitize(workflow),
            cfg.cluster.nodes,
            sanitize(strategy),
            f.digest() as u64
        ),
    };
    let path = dir.join(scoped(file.scope, &file.name));
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    Some(file)
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_safe_chars_only() {
        assert_eq!(sanitize("1000genome v2/x"), "1000genome-v2-x");
        assert_eq!(sanitize("mashup-wo-pdc"), "mashup-wo-pdc");
    }
}
