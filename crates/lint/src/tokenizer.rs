//! A comment- and string-aware line scanner for Rust sources.
//!
//! The lint rules are lexical, so the one thing the tokenizer must get
//! right is *masking*: every character that lives inside a `//` comment, a
//! `/* */` block comment (nested), a `"…"` string, a `r#"…"#` raw string, a
//! byte/raw-byte string, or a character literal is replaced by a space
//! before any rule looks at the line. A `.unwrap()` spelled inside a doc
//! comment or a log message must never produce a diagnostic.
//!
//! Two by-products fall out of the same pass:
//!
//! * `// adas-lint: allow(<rules>, reason = "…")` suppression comments are
//!   parsed while the comment text is still visible;
//! * `#[cfg(test)]` / `#[test]` regions are marked so rules can skip test
//!   code inside library files.

use crate::diag::Rule;
use std::collections::HashMap;

/// One source line after masking.
#[derive(Debug, Clone)]
pub struct Line {
    /// The original text (without the trailing newline).
    pub raw: String,
    /// The masked text: identical to `raw` except that comment and literal
    /// characters are spaces. Always the same `char` length as `raw`.
    pub code: String,
    /// Whether the line is inside a `#[cfg(test)]` item or `#[test]` fn.
    pub in_test: bool,
}

/// A parsed `adas-lint: allow(...)` suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules the suppression covers; empty (with no `unknown` ids) means
    /// "all rules".
    pub rules: Vec<Rule>,
    /// Named ids that are no rule (retired or misspelled). They cover
    /// nothing, and the scan reports each one as a finding.
    pub unknown: Vec<String>,
    /// The free-text justification, if one was given.
    pub reason: Option<String>,
}

/// A fully tokenized source file.
#[derive(Debug, Default)]
pub struct SourceFile {
    /// Masked lines, in order.
    pub lines: Vec<Line>,
    /// Suppressions keyed by the 1-based line they apply to. A suppression
    /// comment that shares its line with code applies to that line; a
    /// comment alone on a line applies to the next line.
    pub suppressions: HashMap<usize, Vec<Suppression>>,
}

/// Pushes `ch` into the masked buffer: newlines survive (they keep lines
/// aligned), everything else inside a masked region becomes a space.
fn push_masked(code: &mut String, ch: char) {
    code.push(if ch == '\n' { '\n' } else { ' ' });
}

/// Tokenizes `source` into masked lines plus suppression/test metadata.
pub fn tokenize(source: &str) -> SourceFile {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut i = 0usize;

    // The masked mirror of the whole file; split into lines at the end.
    let mut code = String::with_capacity(source.len());
    // (0-based line index, comment text, line had code before the comment)
    let mut comments: Vec<(usize, String, bool)> = Vec::new();
    let mut line_no = 0usize;
    let mut line_start = 0usize; // byte index into `code` of the current line

    macro_rules! newline {
        () => {{
            code.push('\n');
            line_no += 1;
            line_start = code.len();
        }};
    }

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                newline!();
                i += 1;
            }
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let had_code = !code[line_start..].trim().is_empty();
                let mut text = String::new();
                while i < n && chars[i] != '\n' {
                    text.push(chars[i]);
                    code.push(' ');
                    i += 1;
                }
                comments.push((line_no, text, had_code));
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                let mut depth = 0usize;
                while i < n {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        code.push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        code.push_str("  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if chars[i] == '\n' {
                            newline!();
                        } else {
                            code.push(' ');
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                i = mask_string(&chars, i, &mut code, &mut line_no, &mut line_start);
            }
            'r' | 'b' if is_raw_string_start(&chars, i) => {
                i = mask_raw_string(&chars, i, &mut code, &mut line_no, &mut line_start);
            }
            'b' if i + 1 < n && chars[i + 1] == '"' && !ident_before(&chars, i) => {
                code.push(' ');
                i = mask_string(&chars, i + 1, &mut code, &mut line_no, &mut line_start);
            }
            '\'' => {
                // Char literal vs lifetime. A literal is `'x'` or `'\…'`;
                // anything else (e.g. `'static`) passes through as code.
                let is_escape = i + 1 < n && chars[i + 1] == '\\';
                let is_plain = i + 2 < n
                    && chars[i + 1] != '\''
                    && chars[i + 1] != '\n'
                    && chars[i + 2] == '\'';
                if is_escape || is_plain {
                    let mut j = i + 1;
                    if chars[j] == '\\' {
                        j += 2; // escape introducer + escaped char
                        while j < n && chars[j] != '\'' && chars[j] != '\n' {
                            j += 1; // \u{…} runs to the closing quote
                        }
                    } else {
                        j += 1;
                    }
                    let end = if j < n && chars[j] == '\'' {
                        j + 1
                    } else {
                        i + 1
                    };
                    for _ in i..end {
                        code.push(' ');
                    }
                    i = end;
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }

    let raw_lines: Vec<&str> = source.split('\n').collect();
    let code_lines: Vec<&str> = code.split('\n').collect();
    let mut lines: Vec<Line> = raw_lines
        .iter()
        .zip(code_lines.iter())
        .map(|(r, c)| Line {
            raw: r.trim_end_matches('\r').to_string(),
            code: c.to_string(),
            in_test: false,
        })
        .collect();
    // `split` yields one trailing empty segment for a newline-terminated
    // file; drop it so line counts match editors.
    if lines.last().is_some_and(|l| l.raw.is_empty()) && source.ends_with('\n') {
        lines.pop();
    }
    mark_test_regions(&mut lines);

    let mut file = SourceFile {
        lines,
        suppressions: HashMap::new(),
    };
    for (line_idx, text, had_code) in comments {
        if let Some(sup) = parse_suppression(&text) {
            let target = if had_code { line_idx + 1 } else { line_idx + 2 };
            file.suppressions.entry(target).or_default().push(sup);
        }
    }
    file
}

/// Whether the char before `i` continues an identifier (so `r`/`b` is part
/// of a name like `attr` rather than a literal prefix).
fn ident_before(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Whether `chars[i..]` starts a raw (byte) string: `r"`, `r#"`, `br"`, …
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if ident_before(chars, i) {
        return false;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if j >= chars.len() || chars[j] != 'r' {
        return false;
    }
    j += 1;
    while j < chars.len() && chars[j] == '#' {
        j += 1;
    }
    j < chars.len() && chars[j] == '"'
}

/// Masks a `"…"` string starting at the opening quote; returns the index
/// one past the closing quote.
fn mask_string(
    chars: &[char],
    start: usize,
    code: &mut String,
    line_no: &mut usize,
    line_start: &mut usize,
) -> usize {
    let n = chars.len();
    let mut i = start + 1;
    code.push(' '); // opening quote
    while i < n {
        match chars[i] {
            '\\' if i + 1 < n => {
                push_masked(code, chars[i]);
                push_masked(code, chars[i + 1]);
                for k in [i, i + 1] {
                    if chars[k] == '\n' {
                        *line_no += 1;
                        *line_start = code.len();
                    }
                }
                i += 2;
            }
            '"' => {
                code.push(' ');
                return i + 1;
            }
            ch => {
                push_masked(code, ch);
                if ch == '\n' {
                    *line_no += 1;
                    *line_start = code.len();
                }
                i += 1;
            }
        }
    }
    i
}

/// Masks a raw (byte) string starting at its `r`/`b` prefix; returns the
/// index one past the closing delimiter.
fn mask_raw_string(
    chars: &[char],
    start: usize,
    code: &mut String,
    line_no: &mut usize,
    line_start: &mut usize,
) -> usize {
    let n = chars.len();
    let mut i = start;
    if chars[i] == 'b' {
        code.push(' ');
        i += 1;
    }
    code.push(' '); // the `r`
    i += 1;
    let mut hashes = 0usize;
    while i < n && chars[i] == '#' {
        code.push(' ');
        hashes += 1;
        i += 1;
    }
    if i < n && chars[i] == '"' {
        code.push(' ');
        i += 1;
    }
    while i < n {
        if chars[i] == '"' {
            let mut j = i + 1;
            let mut k = 0usize;
            while j < n && chars[j] == '#' && k < hashes {
                j += 1;
                k += 1;
            }
            if k == hashes {
                for _ in i..j {
                    code.push(' ');
                }
                return j;
            }
        }
        push_masked(code, chars[i]);
        if chars[i] == '\n' {
            *line_no += 1;
            *line_start = code.len();
        }
        i += 1;
    }
    i
}

/// Marks lines inside `#[cfg(test)]` items and `#[test]` functions.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    let mut test_depths: Vec<i64> = Vec::new();

    for line in lines.iter_mut() {
        let code = line.code.clone();
        let mut in_test_this_line = !test_depths.is_empty();
        if code.contains("#[cfg(test)]") || code.contains("#[test]") {
            pending_attr = true;
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending_attr {
                        test_depths.push(depth);
                        pending_attr = false;
                        in_test_this_line = true;
                    }
                }
                '}' => {
                    if test_depths.last() == Some(&depth) {
                        test_depths.pop();
                    }
                    depth -= 1;
                }
                // `#[cfg(test)] use foo;` — attribute on a braceless item.
                ';' if pending_attr && test_depths.is_empty() => {
                    pending_attr = false;
                }
                _ => {}
            }
        }
        line.in_test = in_test_this_line || !test_depths.is_empty() || pending_attr;
    }
}

/// Parses `adas-lint: allow(R1, reason = "…")` out of a comment's text.
///
/// Doc comments (`///`, `//!`) never suppress: they *document* the syntax
/// (this very file does), and a doc-comment "suppression" would otherwise
/// immediately trip the dead-suppression check.
fn parse_suppression(comment: &str) -> Option<Suppression> {
    if comment.starts_with("///") || comment.starts_with("//!") {
        return None;
    }
    let rest = comment.split("adas-lint:").nth(1)?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let inner = rest.strip_prefix('(')?;

    let (rules_part, reason) = match inner.find("reason") {
        Some(pos) => {
            let after = &inner[pos + "reason".len()..];
            let after = after.trim_start().strip_prefix('=').unwrap_or(after);
            let reason = after
                .split('"')
                .nth(1)
                .map(str::to_string)
                .or_else(|| Some(after.trim().trim_end_matches(')').trim().to_string()));
            (&inner[..pos], reason)
        }
        None => {
            let end = inner.find(')').unwrap_or(inner.len());
            (&inner[..end], None)
        }
    };

    let mut rules = Vec::new();
    let mut unknown = Vec::new();
    for id in rules_part
        .split(',')
        .map(|t| t.trim().trim_end_matches(')').trim())
        .filter(|t| !t.is_empty())
    {
        match Rule::parse(id) {
            Some(rule) => rules.push(rule),
            None => unknown.push(id.to_string()),
        }
    }

    Some(Suppression {
        rules,
        unknown,
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a suppression site on 1-based `line` covers `rule`, matched
    /// as the scan matches a finding.
    fn suppressed(f: &SourceFile, line: usize, rule: Rule) -> bool {
        crate::rules::suppression_sites(f)
            .iter()
            .any(|s| s.line == line && s.covers(rule))
    }

    #[test]
    fn masks_line_comment() {
        let f = tokenize("let x = 1; // call .unwrap() here\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].raw.contains("unwrap"));
        assert_eq!(
            f.lines[0].code.chars().count(),
            f.lines[0].raw.chars().count()
        );
    }

    #[test]
    fn masks_nested_block_comment() {
        let f = tokenize("a /* x /* .unwrap() */ y */ b\nc");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.starts_with('a'));
        assert!(f.lines[0].code.ends_with('b'));
        assert_eq!(f.lines[1].code, "c");
    }

    #[test]
    fn masks_string_with_escapes() {
        let f = tokenize(r#"let s = "quote \" then .unwrap()"; s.len();"#);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("s.len()"));
    }

    #[test]
    fn masks_raw_string() {
        let f = tokenize("let s = r#\"has \" and .unwrap() inside\"#; done();");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("done()"));
    }

    #[test]
    fn lifetimes_survive_char_literals_masked() {
        let f = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        assert!(f.lines[0].code.contains("<'a>"));
        assert!(!f.lines[0].code.contains("'x'"));
    }

    #[test]
    fn multiline_string_keeps_line_count() {
        let src = "let s = \"line one\nline .unwrap() two\";\nnext();";
        let f = tokenize(src);
        assert_eq!(f.lines.len(), 3);
        assert!(!f.lines[1].code.contains("unwrap"));
        assert_eq!(f.lines[2].code, "next();");
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}";
        let f = tokenize(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn suppression_on_same_line_and_next_line() {
        let src = "let g = m.lock(); // adas-lint: allow(R12, reason = \"checked above\")\n// adas-lint: allow(R1)\npub fn f(x: f64) {}";
        let f = tokenize(src);
        assert!(suppressed(&f, 1, Rule::LockDiscipline));
        assert!(!suppressed(&f, 1, Rule::UnitSafety));
        assert!(suppressed(&f, 3, Rule::UnitSafety));
    }

    #[test]
    fn unknown_ids_cover_nothing() {
        // A retired id must not turn the allow into a blanket one.
        let f = tokenize("// adas-lint: allow(R4, reason = \"retired\")\npub fn f(x: f64) {}\n");
        assert!(!suppressed(&f, 2, Rule::UnitSafety));
        assert!(!suppressed(&f, 2, Rule::LockDiscipline));
        let sups = &f.suppressions[&2];
        assert_eq!(sups[0].unknown, vec!["R4".to_string()]);
        // Known ids next to an unknown one still cover their rules.
        let f = tokenize("pub fn f(x: f64) {} // adas-lint: allow(R1, R8)\n");
        assert!(suppressed(&f, 1, Rule::UnitSafety));
        assert!(!suppressed(&f, 1, Rule::LockDiscipline));
        // A comment naming no id at all stays a blanket allow.
        let f = tokenize("pub fn f(x: f64) {} // adas-lint: allow(reason = \"demo\")\n");
        assert!(suppressed(&f, 1, Rule::UnitSafety));
    }

    #[test]
    fn doc_comments_document_but_never_suppress() {
        let src = "/// Write `// adas-lint: allow(R1)` to excuse a site.\npub fn f(x: f64) {}\n//! `adas-lint: allow(R1)` syntax reference\npub fn g(x: f64) {}";
        let f = tokenize(src);
        assert!(f.suppressions.is_empty(), "{:?}", f.suppressions);
        assert!(!suppressed(&f, 2, Rule::UnitSafety));
        assert!(!suppressed(&f, 4, Rule::UnitSafety));
    }
}
