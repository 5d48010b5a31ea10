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

#[test]
fn analyze_prints_every_finding_and_fails_on_errors() {
    let suite = mashup()
        .args(["analyze", "--suite"])
        .output()
        .expect("binary runs");
    assert!(suite.status.success());
    let stdout = String::from_utf8_lossy(&suite.stdout);
    assert!(stdout.starts_with("== config\n"));
    assert!(stdout.contains("== SRAsearch\n") && stdout.contains("== synthetic-5\n"));

    // Loaded without structural validation, so every M1xx finding shows.
    let bad = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/analyze_fixtures/bad_workflow.json"
    );
    let out = mashup()
        .args(["analyze", bad, "SRAsearch", "--json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("M102") && stdout.contains("\"SRAsearch\""));
}

#[test]
fn every_command_refuses_a_broken_workflow_with_every_finding() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/analyze_fixtures");
    let bad = format!("{fixtures}/bad_workflow.json");
    // The analyzer's pretty report of the file, as `analyze` prints it.
    let golden = std::fs::read_to_string(format!("{fixtures}/golden/bad_workflow.pretty"))
        .expect("golden exists");
    for cmd in [
        "validate", "dot", "plan", "run", "compare", "trace", "pareto", "chaos",
    ] {
        let out = mashup().args([cmd, &bad]).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} printed to stdout");
        assert!(
            stderr.starts_with("mashup: static analysis refused the input\n"),
            "{cmd}: {stderr}"
        );
        assert!(stderr.contains(&golden), "{cmd}: {stderr}");
    }
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

/// Each command of the binary's usage block and the flags its lines name,
/// in order of first mention (a unit test in the binary keeps this block
/// equal to the parser's flag table).
fn usage() -> Vec<(&'static str, Vec<&'static str>)> {
    let mut usage: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in include_str!("../src/bin/mashup.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("//! mashup "))
    {
        let name = line.split_whitespace().next().expect("a command name");
        let i = match usage.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                usage.push((name, Vec::new()));
                usage.len() - 1
            }
        };
        let flags = &mut usage[i].1;
        for token in line.split(|c: char| c.is_whitespace() || "[],".contains(c)) {
            if token.starts_with("--") && !flags.contains(&token) {
                flags.push(token);
            }
        }
    }
    usage
}

/// Every command refuses, before loading its workflow, each flag another
/// command reads but it does not, and a flag no command reads, naming the
/// flags it does take.
#[test]
fn unknown_flags_fail_cleanly() {
    let usage = usage();
    assert_eq!(usage.len(), 10, "{usage:?}");
    for (cmd, takes) in &usage {
        let mut foreign: Vec<&str> = usage
            .iter()
            .flat_map(|(_, flags)| flags.iter().copied())
            .filter(|flag| !takes.contains(flag))
            .collect();
        foreign.sort_unstable();
        foreign.dedup();
        foreign.push("--bogus");
        let takes = match takes.join(", ") {
            none if none.is_empty() => "no flags".to_string(),
            list => list,
        };
        for flag in foreign {
            let args = match *cmd {
                "serve" => vec![*cmd, flag],
                _ => vec![*cmd, "SRAsearch", flag],
            };
            let out = mashup()
                .args(&args)
                .stdin(std::process::Stdio::null())
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
            assert_eq!(
                stderr,
                format!("mashup: unknown flag '{flag}' ({cmd} takes {takes})\n"),
                "{args:?}"
            );
        }
    }
}

#[test]
fn bad_objective_and_format_values_are_named_plainly() {
    let refused = |args: &[&str], msg: &str| {
        let out = mashup().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("mashup: {msg}"), "{args:?}");
    };
    refused(
        &["plan", "SRAsearch", "--objective", "nope"],
        "unknown objective 'nope' (expected time, expense or both)",
    );
    refused(
        &["plan", "SRAsearch", "--objective"],
        "--objective needs a value",
    );
    refused(
        &["trace", "SRAsearch", "--format", "nope"],
        "unknown trace format 'nope' (expected jsonl or chrome)",
    );
    refused(
        &["trace", "SRAsearch", "--format"],
        "--format needs a value",
    );
    refused(
        &["analyze", "SRAsearch", "--provider", "azure"],
        "unknown provider 'azure' (expected aws or gcp)",
    );
    refused(
        &["analyze", "SRAsearch", "--provider"],
        "--provider needs a value",
    );
    refused(
        &["chaos", "SRAsearch", "--profile", "weird"],
        "unknown fault profile 'weird' (expected preemption, storage or mixed)",
    );
    refused(
        &["chaos", "SRAsearch", "--profile"],
        "--profile needs a value",
    );
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

/// A task whose checkpoint margin swallows the FaaS timeout (M202) is
/// placed on the VM cluster by every planner instead of being probed or
/// run in a function; only the serverless-only strategy refuses it.
#[test]
fn a_window_bound_task_is_planned_onto_the_vm_cluster() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/analyze_fixtures/window_bound_workflow.json"
    );
    let run = |args: &[&str]| {
        let out = mashup().args(args).output().expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stdout, stderr)
    };
    let (code, stdout, stderr) = run(&["plan", fixture]);
    assert_eq!(code, Some(0), "plan: {stderr}");
    let dock = stdout
        .lines()
        .find(|l| l.contains("Dock"))
        .expect("Dock decided");
    assert!(dock.contains("-> VM"), "{dock}");
    for args in [
        &["run", fixture][..],
        &["run", fixture, "--strategy", "wo-pdc"],
        &["pareto", fixture, "--budget", "20"],
        &["trace", fixture, "--check"],
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
    let (code, _, stderr) = run(&["run", fixture, "--strategy", "serverless"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("M202"), "{stderr}");
}

/// A reader that closes stdout early (`mashup … | head -1`) ends the
/// command quietly: no panic, no exit status 101.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/analyze_fixtures/window_bound_workflow.json"
    );
    // The verbose trace far outgrows a pipe buffer, so the writer is still
    // writing when the reader goes away after one line; the short run
    // report finds its reader gone before its first line.
    for (args, read) in [
        (&["trace", "SRAsearch", "--nodes", "4", "--verbose"][..], 1),
        (&["run", fixture, "--strategy", "wo-pdc"], 0),
    ] {
        let mut child = mashup()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        for _ in 0..read {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("one line");
            assert!(!line.is_empty(), "{args:?}: no output");
        }
        drop(stdout);
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
