//! Property tests for the masking tokenizer — the correctness core of the
//! whole linter. Violation-looking text (raw-float APIs, `static mut`,
//! `.unwrap()`, float `==`) is planted inside comments, strings, raw
//! strings, and char literals; the properties assert the masked view never leaks it and that
//! masking preserves line/column alignment exactly.

use adas_lint::scan_source;
use adas_lint::tokenizer::tokenize;
use proptest::prelude::*;

/// Fragments that look like violations in code position inside a
/// safety-path crate: the R1 and R14 ones fire there, and the rest must not
/// fabricate tokens either.
fn violation_texts() -> Vec<&'static str> {
    vec![
        ".unwrap()",
        ".expect(\\\"boom\\\")",
        "panic!(\\\"no\\\")",
        "a == 0.0",
        "x != 1.5",
        "std::time::Instant::now()",
        "thread_rng()",
        "static mut T: u8 = 0;",
        "data[i]",
        "pub fn speed(v: f64)",
    ]
}

/// Same fragments, without escaping, for comment bodies.
fn violation_texts_plain() -> Vec<&'static str> {
    vec![
        ".unwrap()",
        ".expect(\"boom\")",
        "panic!(\"no\")",
        "a == 0.0",
        "x != 1.5",
        "std::time::Instant::now()",
        "thread_rng()",
        "static mut T: u8 = 0;",
        "data[i]",
        "pub fn speed(v: f64)",
    ]
}

/// Harmless code lines to interleave with the masked content.
fn filler_lines() -> Vec<&'static str> {
    vec![
        "fn ok() {}",
        "let x = 1;",
        "struct S;",
        "const N: usize = 4;",
        "",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Violations inside `//` line comments never produce findings.
    #[test]
    fn line_comments_never_leak(
        texts in prop::collection::vec(prop::sample::select(violation_texts_plain()), 1..6),
        fillers in prop::collection::vec(prop::sample::select(filler_lines()), 1..6),
    ) {
        let mut src = String::new();
        for (t, f) in texts.iter().zip(fillers.iter().cycle()) {
            src.push_str(&format!("// note: {t}\n{f}\n"));
        }
        let diags = scan_source("crates/openadas/src/gen.rs", &src);
        prop_assert!(diags.is_empty(), "comment text leaked: {diags:?}\nsource:\n{src}");
    }

    /// Violations inside ordinary string literals never produce findings.
    #[test]
    fn string_literals_never_leak(
        texts in prop::collection::vec(prop::sample::select(violation_texts()), 1..6),
    ) {
        let mut src = String::new();
        for (i, t) in texts.iter().enumerate() {
            src.push_str(&format!("fn f{i}() -> &'static str {{ \"{t}\" }}\n"));
        }
        let diags = scan_source("crates/openadas/src/gen.rs", &src);
        prop_assert!(diags.is_empty(), "string text leaked: {diags:?}\nsource:\n{src}");
    }

    /// Violations inside raw strings — including multi-line ones — never
    /// produce findings, and never desynchronize later real findings.
    #[test]
    fn raw_strings_never_leak_and_keep_lines_aligned(
        texts in prop::collection::vec(prop::sample::select(violation_texts_plain()), 1..5),
        multiline in any::<bool>(),
    ) {
        let mut src = String::new();
        for (i, t) in texts.iter().enumerate() {
            if multiline {
                src.push_str(&format!("fn f{i}() -> &'static str {{ r#\"line one\n{t}\nline three\"# }}\n"));
            } else {
                src.push_str(&format!("fn f{i}() -> &'static str {{ r#\"{t}\"# }}\n"));
            }
        }
        // A real violation after all the raw strings must be reported at its
        // true line number.
        let violation_line = src.lines().count() + 1;
        src.push_str("pub fn real(speed: f64) {}\n");
        let diags = scan_source("crates/openadas/src/gen.rs", &src);
        prop_assert_eq!(diags.len(), 1, "only the real violation fires:\n{}", &src);
        prop_assert_eq!(diags[0].line, violation_line, "line numbers stay aligned");
    }

    /// Block comments (possibly nested) never leak.
    #[test]
    fn block_comments_never_leak(
        texts in prop::collection::vec(prop::sample::select(violation_texts_plain()), 1..5),
        nested in any::<bool>(),
    ) {
        let mut src = String::new();
        for t in &texts {
            if nested {
                src.push_str(&format!("/* outer /* inner {t} */ still comment {t} */\n"));
            } else {
                src.push_str(&format!("/* {t} */\n"));
            }
        }
        src.push_str("fn ok() {}\n");
        let diags = scan_source("crates/openadas/src/gen.rs", &src);
        prop_assert!(diags.is_empty(), "block comment leaked: {diags:?}\nsource:\n{src}");
    }

    /// Masking is shape-preserving: same number of lines as the input, and
    /// every masked line has exactly the char length of its raw line.
    #[test]
    fn masking_preserves_shape(
        texts in prop::collection::vec(prop::sample::select(violation_texts_plain()), 1..8),
        style in prop::sample::select(vec!["comment", "string", "raw", "block"]),
    ) {
        let mut src = String::new();
        for t in &texts {
            match style {
                "comment" => src.push_str(&format!("// {t}\n")),
                "string" => src.push_str(&format!("let s = \"{}\";\n", t.replace('"', ""))),
                "raw" => src.push_str(&format!("let s = r#\"{t}\"#;\n")),
                _ => src.push_str(&format!("/* {t} */ let x = 1;\n")),
            }
        }
        let file = tokenize(&src);
        prop_assert_eq!(file.lines.len(), src.lines().count());
        for (line, raw) in file.lines.iter().zip(src.lines()) {
            prop_assert_eq!(line.raw.as_str(), raw);
            prop_assert_eq!(
                line.code.chars().count(),
                raw.chars().count(),
                "masked line must align column-for-column with raw line {:?}",
                raw
            );
        }
    }

    /// Char literals (including escaped quotes) don't swallow following code.
    #[test]
    fn char_literals_do_not_desync(which in prop::sample::select(vec!['a', '"', '\'', '\\'])) {
        let lit = match which {
            '"' => "'\"'".to_owned(),
            '\'' => "'\\''".to_owned(),
            '\\' => "'\\\\'".to_owned(),
            c => format!("'{c}'"),
        };
        let src = format!("fn f() -> char {{ {lit} }}\npub fn real(speed: f64) {{}}\n");
        let diags = scan_source("crates/openadas/src/gen.rs", &src);
        prop_assert_eq!(diags.len(), 1, "source:\n{}", &src);
        prop_assert_eq!(diags[0].line, 2);
    }
}
