//! The lint's determinism rules and their token-pattern scan.
//!
//! The five rules (wall-clock, hash-collections, ambient-rng,
//! adhoc-telemetry, no-rc) match short *token sequences* against the
//! lexed stream, so `"HashMap"` inside a string literal, `Instant::now`
//! in a doc comment, and `println!` in prose can never fire — the false
//! positives the old substring matcher produced by design.

use crate::lex::{AllowMark, Kind, Lexed};
use std::path::{Path, PathBuf};

/// A single flagged site.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub file: PathBuf,
    /// 1-based source line.
    pub line: u32,
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Site-specific explanation (the rule's rationale).
    pub message: String,
    /// The trimmed source line, for human output.
    pub text: String,
}

/// One rule family.
pub struct Rule {
    /// Name used in `lint: allow(<name>)` escapes, `--rule` filters, and
    /// reports.
    pub name: &'static str,
    /// Token sequences whose presence flags a site.
    /// The first element of each pattern must lex as an identifier.
    pub patterns: &'static [&'static [&'static str]],
    /// One-line rationale shown with each violation.
    pub why: &'static str,
}

pub const RULES: &[Rule] = &[
    Rule {
        name: "wall-clock",
        patterns: &[
            &["std", "::", "time", "::", "Instant"],
            &["std", "::", "time", "::", "SystemTime"],
            &["Instant", "::", "now"],
            &["SystemTime", "::", "now"],
        ],
        why: "simulated time must come from the event queue, not the host clock",
    },
    Rule {
        name: "hash-collections",
        patterns: &[&["HashMap"], &["HashSet"]],
        why: "hash iteration order is randomized per process; use BTreeMap/BTreeSet",
    },
    Rule {
        name: "ambient-rng",
        patterns: &[
            &["thread_rng"],
            &["rand", "::", "random"],
            &["from_entropy"],
            &["OsRng"],
        ],
        why: "randomness must flow from the seeded SeedSource streams",
    },
    Rule {
        name: "adhoc-telemetry",
        patterns: &[&["println", "!"], &["eprintln", "!"], &["dbg", "!"]],
        why: "substrates report through the structured Tracer, not ad-hoc prints",
    },
    Rule {
        name: "no-rc",
        patterns: &[&["std", "::", "rc", "::", "Rc"], &["Rc", "::", "new"]],
        why: "Rc pins engine state to one thread; let the world own it, or share with Arc",
    },
];

/// Looks a rule up by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Whether a violation of `rule` at `line` is escaped by an allow marker:
/// a file-scoped `lint: allow-file(rule)` anywhere, or a `lint:
/// allow(rule)` on the same line or the directly preceding line.
pub fn is_allowed(allows: &[AllowMark], rule: &str, line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.rule == rule && (a.file_scope || a.line == line || a.line + 1 == line))
}

/// Runs the token-pattern rules over one lexed file, appending violations.
/// At most one violation per (rule, line), matching the old per-line
/// report granularity.
pub fn scan_token_rules(path: &Path, lexed: &Lexed, lines: &[&str], out: &mut Vec<Violation>) {
    let toks = &lexed.tokens;
    for rule in RULES {
        let mut last_line = 0u32;
        for i in 0..toks.len() {
            if toks[i].kind != Kind::Ident {
                continue;
            }
            let hit = rule.patterns.iter().any(|pat| {
                toks.len() - i >= pat.len()
                    && pat.iter().zip(&toks[i..]).all(|(p, t)| t.text == **p)
            });
            if !hit {
                continue;
            }
            let line = toks[i].line;
            if line == last_line || is_allowed(&lexed.allows, rule.name, line) {
                continue;
            }
            last_line = line;
            out.push(Violation {
                file: path.to_path_buf(),
                line,
                rule: rule.name,
                message: rule.why.to_string(),
                text: source_line(lines, line),
            });
        }
    }
}

/// The trimmed source text of 1-based `line` (empty if out of range).
pub fn source_line(lines: &[&str], line: u32) -> String {
    lines
        .get(line as usize - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn scan(src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let mut out = Vec::new();
        scan_token_rules(Path::new("t.rs"), &lexed, &lines, &mut out);
        out
    }

    #[test]
    fn every_token_rule_fires_on_real_code() {
        let cases = [
            ("wall-clock", "let t = std::time::Instant::now();"),
            ("wall-clock", "let t = SystemTime::now();"),
            ("hash-collections", "use std::collections::HashMap;"),
            (
                "hash-collections",
                "let s: HashSet<u32> = Default::default();",
            ),
            ("ambient-rng", "let mut rng = thread_rng();"),
            ("ambient-rng", "let x: f64 = rand::random();"),
            ("adhoc-telemetry", "println!(\"scheduling\");"),
            ("adhoc-telemetry", "eprintln!(\"warn\");"),
            ("adhoc-telemetry", "dbg!(&queue);"),
            ("no-rc", "use std::rc::Rc;"),
            ("no-rc", "let state = Rc::new(World::default());"),
        ];
        for (rule, src) in cases {
            let hits = scan(src);
            assert!(
                hits.iter().any(|v| v.rule == rule),
                "{rule} did not fire on {src:?}: {hits:?}"
            );
        }
    }

    #[test]
    fn patterns_in_strings_do_not_fire() {
        assert_eq!(
            scan("let s = \"HashMap Instant::now println! Rc::new(\";"),
            []
        );
    }

    #[test]
    fn patterns_in_comments_and_docs_do_not_fire() {
        let src = "/// Uses a HashMap internally; see Instant::now for details.\n\
                   // println!(\"debug\") was removed\n\
                   /* thread_rng() in a block comment */\n\
                   fn f() {}\n";
        assert_eq!(scan(src), []);
    }

    #[test]
    fn substring_identifiers_do_not_fire() {
        // The old matcher flagged these; token equality must not.
        assert_eq!(
            scan("struct MyHashMapLike; fn dbg_helper() {} let printlnish = 1;"),
            []
        );
    }

    #[test]
    fn one_violation_per_rule_per_line() {
        // Both wall-clock patterns match this line; report it once.
        let hits = scan("let t = std::time::Instant::now();");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn allow_marks_suppress_same_and_next_line() {
        let same = "use std::collections::HashMap; // keyed only; lint: allow(hash-collections)";
        assert_eq!(scan(same), []);
        let prev = "// keyed lookups only; lint: allow(hash-collections)\n\
                    use std::collections::HashMap;";
        assert_eq!(scan(prev), []);
        let file = "// real clock is the point; lint: allow-file(wall-clock)\n\n\n\
                    fn f() { let t = Instant::now(); }";
        assert_eq!(scan(file), []);
    }

    #[test]
    fn allow_for_the_wrong_rule_or_distant_line_does_not_suppress() {
        assert_eq!(
            scan("// lint: allow(wall-clock)\nuse std::collections::HashMap;").len(),
            1
        );
        assert_eq!(
            scan("// lint: allow(hash-collections)\n\nuse std::collections::HashMap;").len(),
            1
        );
    }
}
