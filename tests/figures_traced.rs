//! Figure output with the flight recorder on.
//!
//! The trace directory is process-wide and cannot be unset, so every run
//! after the one that sets it traces into it. This test therefore has a
//! test binary of its own: nothing runs after it in its process, and it
//! needs no lock against other tests. It removes the directory when it
//! ends, passed or failed.

use mashup_bench as bench;
use std::path::PathBuf;

/// Removes a directory tree when dropped, so a panicking test cleans up too.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        // Nothing to remove when the test failed before writing a trace.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn figure_json_is_byte_identical_with_tracing_enabled() {
    // The flight recorder is a pure observer: enabling `--trace-dir` must
    // not move a single byte of figure output. fig05 runs three full Mashup
    // plans, so this covers the PDC, the hybrid executor, and both
    // platforms. (The trace directory is process-global and write-only, so
    // recording the untraced reference first is the only ordering that
    // works inside one test binary.)
    bench::set_jobs(1);
    let untraced = serde_json::to_string_pretty(&bench::fig05_objectives()).expect("serialize");
    let dir = std::env::temp_dir().join(format!("mashup-trace-test-{}", std::process::id()));
    let _cleanup = RemoveOnDrop(dir.clone());
    bench::set_trace_dir(&dir);
    let traced = serde_json::to_string_pretty(&bench::fig05_objectives()).expect("serialize");
    bench::set_jobs(0);
    assert_eq!(untraced, traced, "fig05 JSON depends on tracing");
    let names: Vec<_> = std::fs::read_dir(&dir)
        .expect("trace dir exists")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    // One file per objective, named by workflow, node count and strategy.
    for objective in ["time", "expense", "both"] {
        let stem = format!("SRAsearch__n48__mashup-{objective}__");
        let found = names.iter().any(|n| n.to_string_lossy().starts_with(&stem));
        assert!(found, "no {stem}* trace among {names:?}");
    }
}
