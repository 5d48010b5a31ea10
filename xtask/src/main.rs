//! `cargo xtask` — workspace development tasks.
//!
//! The main task is `lint`, a static-analysis pass over every crate that
//! holds engine state. It is built on a small in-tree lexer (`lex`) — the
//! workspace builds offline, so no `syn` — plus a brace/scope tracker
//! (`scopes`) and a borrow-graph walk (`borrows`). Two rule families:
//!
//! **Determinism rules** (token-pattern matches; simulated results must be
//! a pure function of configuration + seed):
//!
//! * **wall-clock** — `std::time::Instant` / `SystemTime`: simulated time
//!   comes from the event queue (`mashup_sim::SimTime`) only.
//! * **hash-collections** — `HashMap` / `HashSet`: iteration order is
//!   randomized per process. Use `BTreeMap`/`BTreeSet` or dense ids.
//! * **ambient-rng** — `thread_rng`, `rand::random`, `from_entropy`,
//!   `OsRng`: randomness must flow from the seeded `SeedSource` streams.
//! * **adhoc-telemetry** — `println!` / `eprintln!` / `dbg!`: substrates
//!   report through the structured `mashup_sim::Tracer`.
//! * **no-rc** — `std::rc::Rc` pins engine state to one thread; use
//!   `mashup_sim::Shared` (`Arc<AtomicRefCell<..>>`) or `Arc`.
//!
//! **Borrow rules** (graph analysis over `Shared<T>` guards — the
//! mechanized form of PR 6's hand audit; see `borrows` for the model):
//!
//! * **borrow-overlap** — two live guards on one cell panic at the second
//!   borrow. Borrow momentarily, one statement at a time.
//! * **borrow-order** — two cells nested in opposite orders across a crate
//!   panic (or deadlock) at first contention. Keep one crate-wide order.
//! * **guard-across-pool** — a guard live at a `par_map` / `spawn_workers`
//!   / `spawn` / `scope` call crosses threads and panics at contention.
//!
//! A genuinely safe use is exempted by `// lint: allow(<rule>)` on the
//! same line or the directly preceding comment line, or — for files whose
//! whole purpose exempts them (a real-hardware backend's clock, a bench
//! harness's stdout) — `// lint: allow-file(<rule>)` anywhere in the file.
//! Every escape should carry a written justification.
//!
//! `cargo xtask lint [--json] [--rule <name>]...` runs the pass;
//! `cargo xtask lint-selftest` runs the analyzer against the seeded
//! corruption fixtures in `xtask/fixtures/` so a regression in the
//! analyzer itself (a rule silently never firing) fails CI.
//!
//! This binary's own stdout/stderr is its user interface, not engine
//! telemetry. lint: allow-file(adhoc-telemetry)

mod borrows;
mod lex;
mod rules;
mod scopes;

use rules::Violation;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The directories whose `.rs` trees the lint covers: the eight workspace
/// crates that hold engine state, plus xtask itself. The ninth,
/// `crates/analyze`, is deliberately absent — it is pure diagnostics over
/// recorded traces and holds no engine state.
const LINTED_DIRS: &[&str] = &[
    "crates/sim/src",
    "crates/cloud/src",
    "crates/core/src",
    "crates/dag/src",
    "crates/serve/src",
    "crates/baselines/src",
    "crates/workflows/src",
    "crates/bench/src",
    "xtask/src",
];

/// One file's scan output: direct violations plus the borrow-order edges
/// that feed crate-level cycle detection.
struct FileScan {
    violations: Vec<Violation>,
    edges: Vec<borrows::Edge>,
}

/// Lexes and scans one file's source text.
fn scan_source(path: &Path, source: &str) -> FileScan {
    let lexed = lex::lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let mut violations = Vec::new();
    rules::scan_token_rules(path, &lexed, &lines, &mut violations);
    let fb = borrows::analyze_file(path, &lexed, &lines);
    violations.extend(fb.violations);
    FileScan {
        violations,
        edges: fb.edges,
    }
}

/// Recursively collects every `.rs` file under `dir`, sorted.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full lint over the workspace rooted at `root`. Borrow-order
/// edges are unioned per linted directory (≈ per crate) before cycle
/// detection — a lock-order discipline is a crate-level property.
fn lint(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for dir in LINTED_DIRS {
        let dirp = root.join(dir);
        let mut files = Vec::new();
        collect_rs(&dirp, &mut files).map_err(|e| format!("cannot scan {dirp:?}: {e}"))?;
        let mut edges = Vec::new();
        for f in files {
            let source =
                std::fs::read_to_string(&f).map_err(|e| format!("cannot read {f:?}: {e}"))?;
            let scan = scan_source(&f, &source);
            violations.extend(scan.violations);
            edges.extend(scan.edges);
        }
        violations.extend(borrows::cycle_violations(&edges));
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(violations)
}

/// Root-relative path with forward slashes (stable across platforms for
/// the JSON report).
fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report: version 1, violations sorted by
/// (file, line, rule) with root-relative forward-slash paths. The shape is
/// covered by the `json_golden` fixture — treat any change as a format
/// version bump.
fn render_json(root: &Path, violations: &[Violation]) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\", \"text\": \"{}\"}}",
            json_escape(&rel_path(root, &v.file)),
            v.line,
            v.rule,
            json_escape(v.message.as_str()),
            json_escape(&v.text)
        ));
    }
    if violations.is_empty() {
        s.push(']');
    } else {
        s.push_str("\n  ]");
    }
    s.push_str("\n}\n");
    s
}

/// Runs the seeded-corruption fixtures under `xtask/fixtures/`. Each
/// fixture's first line is a manifest — `// expect: rule-a, rule-b` or
/// `// expect: clean` — and the analyzer must fire exactly that rule set.
/// The `json_golden` fixture additionally pins the `--json` byte format.
/// Returns the number of fixtures checked.
fn selftest(root: &Path) -> Result<usize, String> {
    let xtask_dir = root.join("xtask");
    let fixtures = xtask_dir.join("fixtures");
    let mut files = Vec::new();
    collect_rs(&fixtures, &mut files).map_err(|e| format!("cannot scan {fixtures:?}: {e}"))?;
    if files.is_empty() {
        return Err(format!("no fixtures found under {fixtures:?}"));
    }
    for f in &files {
        let source = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f:?}: {e}"))?;
        let first = source.lines().next().unwrap_or("");
        let Some(manifest) = first.strip_prefix("// expect:") else {
            return Err(format!(
                "{}: first line must be `// expect: ...`",
                f.display()
            ));
        };
        let want: BTreeSet<&str> = if manifest.trim() == "clean" {
            BTreeSet::new()
        } else {
            let set: BTreeSet<&str> = manifest.split(',').map(str::trim).collect();
            for r in &set {
                if rules::rule(r).is_none() {
                    return Err(format!("{}: unknown rule `{r}` in manifest", f.display()));
                }
            }
            set
        };
        let scan = scan_source(f, &source);
        let mut fired: BTreeSet<&str> = scan.violations.iter().map(|v| v.rule).collect();
        fired.extend(
            borrows::cycle_violations(&scan.edges)
                .iter()
                .map(|v| v.rule),
        );
        if fired != want {
            return Err(format!(
                "{}: expected rules {want:?}, analyzer fired {fired:?}",
                f.display()
            ));
        }
        // The JSON golden pins the report format byte-for-byte.
        if f.file_name().is_some_and(|n| n == "json_golden.rs") {
            let mut violations = scan.violations;
            violations.extend(borrows::cycle_violations(&scan.edges));
            violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
            let got = render_json(&xtask_dir, &violations);
            let golden_path = fixtures.join("json_golden.expected.json");
            let golden = std::fs::read_to_string(&golden_path)
                .map_err(|e| format!("cannot read {golden_path:?}: {e}"))?;
            if got != golden {
                return Err(format!(
                    "json_golden: report drifted from {}.\n--- expected ---\n{golden}\n--- got ---\n{got}",
                    golden_path.display()
                ));
            }
        }
    }
    Ok(files.len())
}

/// xtask lives at `<root>/xtask`, so the workspace root is its manifest
/// directory's parent.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside the workspace")
        .to_path_buf()
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut only: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--rule" => match it.next() {
                Some(name) => match rules::rule(name) {
                    Some(r) => only.push(r.name),
                    None => {
                        let known: Vec<&str> = rules::RULES.iter().map(|r| r.name).collect();
                        eprintln!(
                            "xtask lint: unknown rule '{name}' (known: {})",
                            known.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("xtask lint: --rule needs a rule name");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask lint: unknown flag '{other}' (available: --json, --rule <name>)");
                return ExitCode::from(2);
            }
        }
    }
    let root = workspace_root();
    let mut violations = match lint(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    if !only.is_empty() {
        violations.retain(|v| only.contains(&v.rule));
    }
    if json {
        print!("{}", render_json(&root, &violations));
        return if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if violations.is_empty() {
        println!(
            "xtask lint: clean ({} rules over {})",
            rules::RULES.len(),
            LINTED_DIRS.join(", ")
        );
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!(
            "{}:{}: [{}] {}\n    {}",
            rel_path(&root, &v.file),
            v.line,
            v.rule,
            v.message,
            v.text
        );
    }
    eprintln!(
        "xtask lint: {} violation(s); exempt safe uses with \
         `// lint: allow(<rule>)` on or directly above the line \
         (or `lint: allow-file(<rule>)` for whole-file exemptions), \
         with a written justification",
        violations.len()
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("lint-selftest") => match selftest(&workspace_root()) {
            Ok(n) => {
                println!("xtask lint-selftest: {n} fixtures behave as seeded");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask lint-selftest: {e}");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("xtask: unknown task '{other}' (available: lint, lint-selftest)");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo xtask <lint|lint-selftest>");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique temp directory removed on drop — panic-safe, and keyed on
    /// pid + a process-wide counter so concurrent tests (or a stale dir
    /// from a previous crashed run under a recycled pid) cannot collide.
    struct TempTree(PathBuf);

    impl TempTree {
        fn new(label: &str) -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("xtask-{label}-{}-{n}", std::process::id()));
            // A leftover under the same name would pollute the scan.
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create temp tree");
            Self(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempTree {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scan_str(source: &str) -> Vec<Violation> {
        let scan = scan_source(Path::new("test.rs"), source);
        let mut v = scan.violations;
        v.extend(borrows::cycle_violations(&scan.edges));
        v
    }

    #[test]
    fn violation_carries_location_and_rule() {
        let src = "fn f() {}\nlet t = Instant::now();\n";
        let hits = scan_str(src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[0].rule, "wall-clock");
    }

    #[test]
    fn token_and_borrow_rules_combine_in_one_scan() {
        let src = "fn f(c: &Shared<P>) {\n\
                   let g = c.borrow();\n\
                   let h = c.borrow();\n\
                   println!(\"overlap\");\n\
                   }";
        let rules_hit: BTreeSet<&str> = scan_str(src).iter().map(|v| v.rule).collect();
        assert_eq!(
            rules_hit,
            BTreeSet::from(["borrow-overlap", "adhoc-telemetry"])
        );
    }

    #[test]
    fn seeded_violation_in_a_linted_tree_fails_the_lint() {
        // End-to-end negative test: a fresh tree shaped like the workspace
        // with one bad file must come back non-empty.
        let tree = TempTree::new("lint-negative");
        for d in LINTED_DIRS {
            std::fs::create_dir_all(tree.path().join(d)).expect("create temp tree");
        }
        std::fs::write(
            tree.path().join("crates/sim/src/bad.rs"),
            "use std::time::SystemTime;\nfn now() { SystemTime::now(); }\n",
        )
        .expect("write seeded violation");
        let violations = lint(tree.path()).expect("scan succeeds");
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().all(|v| v.rule == "wall-clock"));
    }

    #[test]
    fn borrow_order_cycles_union_across_files_in_one_crate() {
        let tree = TempTree::new("lint-order");
        for d in LINTED_DIRS {
            std::fs::create_dir_all(tree.path().join(d)).expect("create temp tree");
        }
        // Opposite nesting orders in two *different* files of one crate.
        std::fs::write(
            tree.path().join("crates/sim/src/a.rs"),
            "fn a(&self) { let g = self.cache.borrow_mut(); self.queue.borrow().len(); }\n",
        )
        .expect("write");
        std::fs::write(
            tree.path().join("crates/sim/src/b.rs"),
            "fn b(&self) { let g = self.queue.borrow_mut(); self.cache.borrow().len(); }\n",
        )
        .expect("write");
        let violations = lint(tree.path()).expect("scan succeeds");
        assert!(
            violations.iter().any(|v| v.rule == "borrow-order"),
            "{violations:?}"
        );
    }

    #[test]
    fn opposite_orders_in_different_crates_are_not_a_cycle() {
        let tree = TempTree::new("lint-order-crates");
        for d in LINTED_DIRS {
            std::fs::create_dir_all(tree.path().join(d)).expect("create temp tree");
        }
        std::fs::write(
            tree.path().join("crates/sim/src/a.rs"),
            "fn a(&self) { let g = self.cache.borrow_mut(); self.queue.borrow().len(); }\n",
        )
        .expect("write");
        std::fs::write(
            tree.path().join("crates/cloud/src/b.rs"),
            "fn b(&self) { let g = self.queue.borrow_mut(); self.cache.borrow().len(); }\n",
        )
        .expect("write");
        let violations = lint(tree.path()).expect("scan succeeds");
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let root = Path::new("/ws");
        let violations = vec![Violation {
            file: PathBuf::from("/ws/crates/sim/src/bad.rs"),
            line: 3,
            rule: "adhoc-telemetry",
            message: "substrates report through the structured Tracer".into(),
            text: "println!(\"t = {:?}\", now);".into(),
        }];
        let got = render_json(root, &violations);
        assert_eq!(
            got,
            "{\n  \"version\": 1,\n  \"violations\": [\n    \
             {\"file\": \"crates/sim/src/bad.rs\", \"line\": 3, \"rule\": \"adhoc-telemetry\", \
             \"message\": \"substrates report through the structured Tracer\", \
             \"text\": \"println!(\\\"t = {:?}\\\", now);\"}\n  ]\n}\n"
        );
        assert_eq!(
            render_json(root, &[]),
            "{\n  \"version\": 1,\n  \"violations\": []\n}\n"
        );
    }

    #[test]
    fn seeded_fixtures_fire_their_rules() {
        // The same check `cargo xtask lint-selftest` runs in CI: every
        // seeded-corruption fixture must fire exactly its manifest rules,
        // and the JSON golden must match byte-for-byte.
        let n = selftest(&workspace_root()).expect("fixtures behave");
        assert!(n >= 8, "expected the full fixture suite, found {n}");
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        let violations = lint(&workspace_root()).expect("scan succeeds");
        assert_eq!(violations, Vec::new());
    }
}
