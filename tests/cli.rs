//! Integration tests of the `mashup` CLI binary.

use std::process::Command;

fn mashup() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mashup"))
}

#[test]
fn validate_reports_structure() {
    let out = mashup()
        .args(["validate", "SRAsearch"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("5 tasks"));
    assert!(stdout.contains("404 components"));
}

#[test]
fn dot_emits_graphviz() {
    let out = mashup()
        .args(["dot", "1000Genome"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("Individual (1252)"));
}

#[test]
fn plan_prints_decisions() {
    let out = mashup()
        .args(["plan", "SRAsearch", "--nodes", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FasterQ-Dump"));
    assert!(stdout.contains("profiling cost"));
}

/// Every strategy name the CLI accepts.
const STRATEGIES: [&str; 6] = [
    "mashup",
    "wo-pdc",
    "traditional",
    "serverless",
    "pegasus",
    "kepler",
];

#[test]
fn run_executes_a_strategy() {
    for strategy in STRATEGIES {
        let out = mashup()
            .args(["run", "SRAsearch", "--nodes", "4", "--strategy", strategy])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{strategy}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with(strategy), "{strategy}: {stdout}");
        assert!(stdout.contains("Merge2"), "{strategy}");
    }
}

#[test]
fn an_empty_cluster_is_refused_with_a_diagnostic() {
    let refused = |args: &[&str]| {
        let out = mashup().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("M301"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    };
    for strategy in STRATEGIES {
        for cmd in ["run", "trace", "chaos"] {
            refused(&[cmd, "SRAsearch", "--nodes", "0", "--strategy", strategy]);
        }
    }
    refused(&["compare", "SRAsearch", "--nodes", "0"]);
    refused(&["pareto", "SRAsearch", "--nodes", "0"]);
}

#[test]
fn unknown_flags_fail_cleanly() {
    let out = mashup()
        .args(["plan", "SRAsearch", "--bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"));
}

#[test]
fn zero_serve_sizes_are_refused() {
    for flag in ["--workers", "--queue-depth"] {
        let out = mashup()
            .args(["serve", flag, "0"])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs a positive integer")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn missing_file_fails_cleanly() {
    let out = mashup()
        .args(["validate", "/nonexistent/wf.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn json_workflow_round_trips_through_the_cli() {
    let w = mashup::workflows::srasearch::workflow();
    let path = std::env::temp_dir().join("mashup-cli-test.json");
    std::fs::write(&path, mashup::dag::to_json(&w)).expect("write temp workflow");
    let out = mashup()
        .args(["validate", path.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("404 components"));
}
