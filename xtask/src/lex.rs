//! A minimal Rust lexer for the lint's static analysis.
//!
//! The workspace builds fully offline, so no `syn`/`proc-macro2`: this is
//! a hand-rolled token scanner that is exactly as smart as the lint needs
//! to be. It produces a flat token stream with **string literals, character
//! literals, comments, and attributes stripped** — so a rule pattern can
//! never fire inside prose, doc examples, or `#[doc = ".."]` text — while
//! preserving line numbers for reporting and recording every
//! `lint: allow(..)` / `lint: allow-file(..)` escape found in a comment.
//!
//! What it understands:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments;
//! * string-ish literals: `"..."` (with escapes), raw strings `r".."` /
//!   `r#".."#` (any hash count), byte/byte-raw strings, C strings, and
//!   char literals vs. lifetimes (`'a'` vs `'a`);
//! * raw identifiers (`r#fn` lexes as the identifier `fn`);
//! * attributes `#[..]` / `#![..]`, skipped with balanced brackets and
//!   string awareness;
//! * multi-char operators the analyses care about: `::`, `->`, `=>`,
//!   `||`, `&&` (everything else is single-char punctuation).
//!
//! It does **not** build an AST: the rules match token sequences in the
//! flat stream.

/// Token classification — just enough to tell identifiers from the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation / operator (possibly multi-char: `::`, `->`, `=>`,
    /// `||`, `&&`).
    Punct,
    /// String, byte-string, C-string, or char literal. The text is not
    /// retained — literal contents must never match a rule.
    Literal,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'static`). Text excludes the quote.
    Life,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    pub line: u32,
}

/// One `lint: allow(..)` escape found in a comment.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowMark {
    /// 1-based line the marker text appears on.
    pub line: u32,
    /// Rule name inside the parentheses.
    pub rule: String,
    /// `true` for the `lint: allow-file(..)` form, which exempts the
    /// whole file from the rule.
    pub file_scope: bool,
}

/// Lexed form of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowMark>,
}

/// Records every allow marker contained in `comment` (one comment's text,
/// single line) at line `line`.
fn scan_allow_marks(comment: &str, line: u32, out: &mut Vec<AllowMark>) {
    for (needle, file_scope) in [("lint: allow-file(", true), ("lint: allow(", false)] {
        let mut rest = comment;
        while let Some(pos) = rest.find(needle) {
            let after = &rest[pos + needle.len()..];
            if let Some(close) = after.find(')') {
                let rule = after[..close].trim().to_string();
                // `lint: allow-file(x)` also contains the substring
                // `lint: allow(..)`? No — "allow-file(" vs "allow(" differ
                // before the paren, so each marker matches exactly one form.
                if !rule.is_empty() {
                    out.push(AllowMark {
                        line,
                        rule,
                        file_scope,
                    });
                }
                rest = &after[close..];
            } else {
                break;
            }
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Skips a `"..."` body starting just after the opening quote; returns the
/// index just past the closing quote. Tracks newlines.
fn skip_plain_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // A `\` line continuation swallows the newline — which
                // still has to count, or every line after the string
                // drifts.
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string `r##"..."##` body. `i` points at the first `#` or the
/// opening quote; returns the index just past the closing delimiter.
fn skip_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
    }
    while i < b.len() {
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0;
            while j < b.len() && seen < hashes && b[j] == b'#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            if b[i] == b'\n' {
                *line += 1;
            }
            i += 1;
        }
    }
    i
}

/// Skips an attribute body starting at the opening `[`; returns the index
/// just past the matching `]`. Strings inside the attribute (e.g.
/// `#[doc = "HashMap"]`) are skipped so their contents cannot unbalance
/// the brackets — or ever reach the token stream.
fn skip_attribute(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'[' => {
                depth += 1;
                i += 1;
            }
            b']' => {
                depth -= 1;
                i += 1;
                if depth == 0 {
                    return i;
                }
            }
            b'"' => i = skip_plain_string(b, i + 1, line),
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Lexes `src` into a token stream plus the allow markers found in its
/// comments. Byte-oriented: all delimiters are ASCII, and non-ASCII bytes
/// (which only appear in comments and literals) are ≥ 0x80, so they can
/// never be mistaken for one.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                scan_allow_marks(&src[start..i], line, &mut out.allows);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1usize;
                let mut seg = i;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else if b[i] == b'\n' {
                        scan_allow_marks(&src[seg..i], line, &mut out.allows);
                        line += 1;
                        i += 1;
                        seg = i;
                    } else {
                        i += 1;
                    }
                }
                let end = i.min(b.len());
                scan_allow_marks(&src[seg..end], line, &mut out.allows);
            }
            b'#' => {
                let mut j = i + 1;
                if b.get(j) == Some(&b'!') {
                    j += 1;
                }
                if b.get(j) == Some(&b'[') {
                    i = skip_attribute(b, j, &mut line);
                } else {
                    out.tokens.push(Token {
                        kind: Kind::Punct,
                        text: "#".into(),
                        line,
                    });
                    i += 1;
                }
            }
            b'"' => {
                let l = line;
                i = skip_plain_string(b, i + 1, &mut line);
                out.tokens.push(Token {
                    kind: Kind::Literal,
                    text: String::new(),
                    line: l,
                });
            }
            b'\'' => {
                // Char literal vs lifetime.
                let l = line;
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: skip escape, then to the quote.
                    i += 3;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i = (i + 1).min(b.len());
                    out.tokens.push(Token {
                        kind: Kind::Literal,
                        text: String::new(),
                        line: l,
                    });
                } else if b.get(i + 1).is_some_and(|&n| is_ident_cont(n))
                    && b.get(i + 2) != Some(&b'\'')
                {
                    // Lifetime: 'name with no closing quote.
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && is_ident_cont(b[i]) {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: Kind::Life,
                        text: src[start..i].to_string(),
                        line: l,
                    });
                } else {
                    // Plain char literal like 'a' or '('.
                    i += 1;
                    while i < b.len() && b[i] != b'\'' {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i = (i + 1).min(b.len());
                    out.tokens.push(Token {
                        kind: Kind::Literal,
                        text: String::new(),
                        line: l,
                    });
                }
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                let word = &src[start..i];
                let next = b.get(i).copied();
                // String-literal prefixes and raw identifiers.
                match (word, next) {
                    ("r" | "br" | "cr", Some(b'"' | b'#'))
                        if word != "r"
                            || next != Some(b'#')
                            || b.get(i + 1) == Some(&b'"')
                            || b.get(i + 1) == Some(&b'#') =>
                    {
                        let l = line;
                        i = skip_raw_string(b, i, &mut line);
                        out.tokens.push(Token {
                            kind: Kind::Literal,
                            text: String::new(),
                            line: l,
                        });
                    }
                    ("r", Some(b'#')) => {
                        // Raw identifier r#word: lex as the bare word.
                        let rs = i + 1;
                        i += 1;
                        while i < b.len() && is_ident_cont(b[i]) {
                            i += 1;
                        }
                        out.tokens.push(Token {
                            kind: Kind::Ident,
                            text: src[rs..i].to_string(),
                            line,
                        });
                    }
                    ("b" | "c", Some(b'"')) => {
                        let l = line;
                        i = skip_plain_string(b, i + 1, &mut line);
                        out.tokens.push(Token {
                            kind: Kind::Literal,
                            text: String::new(),
                            line: l,
                        });
                    }
                    ("b", Some(b'\'')) => {
                        // Byte char literal b'x'.
                        let l = line;
                        i += 2;
                        if b.get(i.wrapping_sub(1)) == Some(&b'\\') {
                            i += 1;
                        }
                        while i < b.len() && b[i] != b'\'' {
                            i += 1;
                        }
                        i = (i + 1).min(b.len());
                        out.tokens.push(Token {
                            kind: Kind::Literal,
                            text: String::new(),
                            line: l,
                        });
                    }
                    _ => out.tokens.push(Token {
                        kind: Kind::Ident,
                        text: word.to_string(),
                        line,
                    }),
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() {
                    if is_ident_cont(b[i]) {
                        i += 1;
                    } else if b[i] == b'.' && b.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                        // Float like 1.5 — but not `1..5` or `x.0.y`.
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: Kind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                // Multi-char operators the analyses need as single tokens.
                let pair = b.get(i + 1).map(|&n| [c, n]);
                let two = match pair {
                    Some([b':', b':']) => Some("::"),
                    Some([b'-', b'>']) => Some("->"),
                    Some([b'=', b'>']) => Some("=>"),
                    Some([b'|', b'|']) => Some("||"),
                    Some([b'&', b'&']) => Some("&&"),
                    _ => None,
                };
                if let Some(t) = two {
                    out.tokens.push(Token {
                        kind: Kind::Punct,
                        text: t.into(),
                        line,
                    });
                    i += 2;
                } else {
                    out.tokens.push(Token {
                        kind: Kind::Punct,
                        text: (c as char).to_string(),
                        line,
                    });
                    i += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind != Kind::Literal)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_paths_tokenize() {
        assert_eq!(
            texts("use std::collections::HashMap;"),
            ["use", "std", "::", "collections", "::", "HashMap", ";"]
        );
    }

    #[test]
    fn string_contents_never_become_tokens() {
        let lexed = lex("let s = \"HashMap Instant::now println!\";");
        assert!(lexed.tokens.iter().all(|t| t.text != "HashMap"));
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == Kind::Literal && t.text.is_empty()));
    }

    #[test]
    fn raw_strings_with_hashes_are_skipped() {
        let src = "let s = r#\"Instant::now \" inner \"#; let t = 1;";
        let toks = texts(src);
        assert!(!toks.contains(&"Instant".to_string()), "{toks:?}");
        assert!(toks.contains(&"t".to_string()));
    }

    #[test]
    fn comments_are_stripped_but_allow_marks_survive() {
        let src = "// HashMap mention; lint: allow(hash-collections)\nlet x = 1;\n";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().all(|t| t.text != "HashMap"));
        assert_eq!(
            lexed.allows,
            vec![AllowMark {
                line: 1,
                rule: "hash-collections".into(),
                file_scope: false
            }]
        );
    }

    #[test]
    fn block_comments_nest_and_track_lines() {
        let src = "/* outer /* inner */ still comment\nsecond */ let y = 2;";
        let lexed = lex(src);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>(),
            ["let", "y", "=", "2", ";"]
        );
        assert_eq!(lexed.tokens[0].line, 2);
    }

    #[test]
    fn allow_file_marker_is_distinguished() {
        let src = "// real clock by design; lint: allow-file(wall-clock)\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert!(lexed.allows[0].file_scope);
        assert_eq!(lexed.allows[0].rule, "wall-clock");
    }

    #[test]
    fn attributes_are_stripped_including_doc_strings() {
        let src = "#[doc = \"uses HashMap and Instant::now\"]\n#[derive(Clone)]\nstruct S;";
        let toks = texts(src);
        assert_eq!(toks, ["struct", "S", ";"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let s = '\\n'; }");
        let lifes: Vec<_> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Life)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifes, ["a", "a"]);
        assert_eq!(
            toks.tokens
                .iter()
                .filter(|t| t.kind == Kind::Literal)
                .count(),
            2
        );
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        assert_eq!(
            texts("a::b -> c => d || e && f"),
            ["a", "::", "b", "->", "c", "=>", "d", "||", "e", "&&", "f"]
        );
    }

    #[test]
    fn numbers_including_floats_and_tuple_access() {
        assert_eq!(
            texts("1.5 + x.0 .. 2"),
            ["1.5", "+", "x", ".", "0", ".", ".", "2"]
        );
    }

    #[test]
    fn line_numbers_are_accurate() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn multi_line_strings_and_continuations_keep_line_counts() {
        // A plain newline inside a string, and a `\` line continuation:
        // both must advance the line counter.
        let src = "let a = \"one\ntwo\";\nlet b = \"one \\\n two\";\nlet c = 1;";
        let lexed = lex(src);
        let c = lexed.tokens.iter().find(|t| t.text == "c").expect("c");
        assert_eq!(c.line, 5);
    }
}
