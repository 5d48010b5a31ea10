//! Optional flight-recorder output for harness runs.
//!
//! When a trace directory is set (`--trace-dir` in the `figures` binary),
//! every [`crate::run_strategy`] call records its execution and writes one
//! deterministic JSONL trace file into the directory. File names are
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

/// Directs all subsequent [`crate::run_strategy`] calls to record their
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

/// Writes `records` as one JSONL file for (`workflow`, `strategy`) on
/// `cfg`'s cluster under the configured directory. No-op when tracing is
/// off.
pub(crate) fn write_trace(
    cfg: &MashupConfig,
    workflow: &str,
    strategy: &str,
    records: &[TraceRecord],
) {
    let Some(dir) = trace_dir() else { return };
    let body = mashup_sim::trace::to_jsonl(records);
    let mut f = Fingerprinter::new("trace-file");
    f.write_str(&body);
    let scope = *SCOPE.lock().unwrap_or_else(|e| e.into_inner());
    let name = format!(
        "{}{}__n{}__{}__{:016x}.jsonl",
        if scope.is_empty() {
            String::new()
        } else {
            format!("{}__", sanitize(scope))
        },
        sanitize(workflow),
        cfg.cluster.nodes,
        sanitize(strategy),
        f.digest() as u64
    );
    let path = dir.join(name);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
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
