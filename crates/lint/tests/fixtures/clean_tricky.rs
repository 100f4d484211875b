//! Golden fixture: every violation-looking token here is inside a comment,
//! string, raw string, char literal, or test module — a correct scan finds
//! NOTHING. Each construct is a regression trap for the masking tokenizer.
//! Like its sibling, this file is scanned as `crates/openadas/src/fixture.rs`
//! and never compiled.

// A comment mentioning pub fn brake(v: f64) must not fire R1.

/// Returns the label. Writing `static mut X: u8 = 0;` here is prose, not
/// code (R14 trap); so is `pub fn speed(v: f64)` (R1 trap).
fn label() -> &'static str {
    "call .unwrap() or panic!(\"boom\") — it's fine inside a string"
}

fn raw_multiline() -> &'static str {
    r#"first line
    frames[i] and .expect("x") and a == 0.0 and thread_rng()
    last line"#
}

fn raw_with_hashes() -> &'static str {
    r##"contains "# inside, plus pub fn accel(a: f64) and SystemTime"##
}

fn byte_string() -> &'static [u8] {
    b".unwrap() as bytes, x != 1.5 too"
}

/* Block comment with std::time::SystemTime and .unwrap()
   spanning /* a nested block */ multiple lines with frames[i]. */
fn after_block() -> u8 {
    0
}

fn char_literals() -> (char, char, char) {
    // The quote and backslash literals must not open a string that would
    // swallow the rest of the file.
    ('"', '\'', '\\')
}

fn lifetime_not_char(s: &'static str) -> &'static str {
    // `'static` is a lifetime, not an unterminated char literal.
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        let v: Option<u8> = Some(1);
        assert_eq!(v.unwrap(), 1);
        let x = [1u8, 2];
        assert_eq!(x[0], 1);
    }
}
