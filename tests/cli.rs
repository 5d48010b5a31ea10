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
fn an_oversized_cluster_is_refused_with_a_diagnostic() {
    for nodes in ["4294967296", "18446744073709551615"] {
        for cmd in ["run", "plan", "compare", "trace", "chaos", "pareto"] {
            let out = mashup()
                .args([cmd, "SRAsearch", "--nodes", nodes])
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {nodes}: {stderr}");
            assert!(stderr.contains("M301"), "{cmd} {nodes}: {stderr}");
            assert!(
                stderr.contains("at most 1048576"),
                "{cmd} {nodes}: {stderr}"
            );
        }
    }
}

#[test]
fn serve_answers_the_request_after_an_oversized_cluster() {
    use std::io::Write as _;
    let mut child = mashup()
        .args(["serve", "--workers", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(
            concat!(
                r#"{"tenant":"t","kind":"Plan","workflow":"SraSearch","nodes":4294967296,"seed":0}"#,
                "\n",
                r#"{"tenant":"t","kind":"Plan","workflow":"SraSearch","nodes":18446744073709551615,"seed":0}"#,
                "\n",
                r#"{"tenant":"t","kind":"Plan","workflow":"SraSearch","nodes":8,"seed":0}"#,
                "\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 3, "{stdout}");
    for refused in &replies[..2] {
        assert!(refused.contains(r#""status":"Refused""#), "{refused}");
        assert!(refused.contains("M301"), "{refused}");
    }
    assert!(replies[2].contains(r#""status":"Done""#), "{}", replies[2]);
}

#[test]
fn pareto_jobs_text_says_zero_means_one_per_core() {
    let out = mashup()
        .args(["pareto", "SRAsearch", "--jobs", "-1"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--jobs needs a worker count (0 = one per core)"),
        "{stderr}"
    );
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
fn non_finite_chaos_flags_are_refused() {
    let refused = |args: &[&str], msg: &str| {
        let out = mashup().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
    };
    for profile in ["preemption", "storage", "mixed"] {
        for horizon in ["inf", "-inf", "NaN", "0", "-1"] {
            refused(
                &[
                    "chaos",
                    "SRAsearch",
                    "--profile",
                    profile,
                    "--horizon",
                    horizon,
                ],
                "--horizon needs positive seconds",
            );
        }
    }
    for factor in ["NaN", "inf", "-inf"] {
        refused(
            &["chaos", "SRAsearch", "--straggler-factor", factor],
            "--straggler-factor needs a number",
        );
    }
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
