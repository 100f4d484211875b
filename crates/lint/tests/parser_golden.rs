//! Golden-fixture tests for the token-tree parser: the constructs most
//! likely to derail a hand-rolled Rust scanner, each pinned to the exact
//! facts the cross-file rules consume.

use adas_lint::parser::{self, Callee, FileFacts};
use adas_lint::tokenizer;

fn facts(src: &str) -> FileFacts {
    parser::parse(&tokenizer::tokenize(src))
}

#[test]
fn nested_generics_are_not_shift_operators() {
    let f = facts(
        "pub fn deep(vv: Vec<Vec<f64>>) -> Vec<Vec<f64>> {\n    vv\n}\nfn shifted(a: u64) -> u64 {\n    a >> 2\n}\nfn after() -> u8 {\n    0\n}\n",
    );
    let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(
        names,
        ["deep", "shifted", "after"],
        "a `>>` that closes two generics (or shifts) must not swallow the rest of the file"
    );
    assert!(f.fns[0].is_pub);
    assert!(!f.fns[1].is_pub);
}

#[test]
fn raw_strings_containing_fn_are_opaque() {
    let f = facts(
        "fn real() -> usize {\n    let s = r#\"fn fake() { x.unwrap() } panic!()\"#;\n    s.len()\n}\n",
    );
    assert_eq!(f.fns.len(), 1, "{:?}", f.fns);
    assert_eq!(f.fns[0].name, "real");
    assert!(
        f.fns[0].macros.is_empty() && f.fns[0].calls.iter().all(|c| c.callee.name() == "len"),
        "calls and macros spelled inside a raw string are text, not code: {:?}",
        f.fns[0]
    );
}

#[test]
fn macro_invocations_are_recorded_with_their_lines() {
    let f = facts(
        "fn report(a: u8) {\n    println!(\"a = {}\", a);\n    if a > 250 {\n        unreachable!(\"bounded by caller\");\n    }\n}\n",
    );
    let fd = &f.fns[0];
    let macros: Vec<(usize, &str)> = fd.macros.iter().map(|(l, m)| (*l, m.as_str())).collect();
    assert_eq!(macros, [(2, "println"), (4, "unreachable")]);
}

#[test]
fn lifetimes_are_not_char_literals() {
    let f =
        facts("pub fn first<'a>(xs: &'a [f64]) -> &'a f64 {\n    xs.first()\n}\nfn after() {}\n");
    let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, ["first", "after"], "{:?}", f.fns);
    let fd = &f.fns[0];
    assert!(fd.is_pub);
    assert!(
        fd.calls.iter().any(|c| c.callee.name() == "first"),
        "the body survives the lifetimes: {:?}",
        fd.calls
    );
}

#[test]
fn where_clauses_do_not_leak_into_the_body() {
    let f = facts(
        "pub fn dup<T>(t: T) -> Vec<T>\nwhere\n    T: Clone,\n{\n    let c = t.clone();\n    vec![t, c]\n}\n",
    );
    assert_eq!(f.fns.len(), 1, "{:?}", f.fns);
    let fd = &f.fns[0];
    assert!(
        fd.calls
            .iter()
            .any(|c| c.callee == Callee::Method("clone".into())),
        "body calls are still collected: {:?}",
        fd.calls
    );
}

#[test]
fn impl_methods_are_qualified() {
    let f = facts(
        "impl Harness {\n    pub fn step(&mut self) {\n        self.engine.observe();\n        helper();\n    }\n}\nfn helper() {}\n",
    );
    assert_eq!(f.fns[0].qual, "Harness::step");
    assert_eq!(f.fns[0].impl_type.as_deref(), Some("Harness"));
    assert_eq!(f.fns[1].qual, "helper");
    let callees: Vec<&str> = f.fns[0].calls.iter().map(|c| c.callee.name()).collect();
    assert_eq!(callees, ["observe", "helper"]);
}
