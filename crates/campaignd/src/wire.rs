//! The job API's body shape: one flat JSON object.
//!
//! A body is read by [`platform::json::parse`], the workspace's one JSON
//! reader, and then checked to be exactly what a job submission needs: one
//! object whose values are strings, unsigned integers, booleans, or arrays
//! of `[int, int]` pairs (the chaos knobs). Anything else — nesting, a
//! negative or fractional number, `null`, trailing bytes — is an error,
//! not a guess, because the body comes from outside the program.

use std::collections::BTreeMap;

use platform::json::{self, Json};

/// A value in a flat job-submission object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A non-negative integer.
    UInt(u64),
    /// A boolean.
    Bool(bool),
    /// An array of `[a, b]` integer pairs.
    Pairs(Vec<(u64, u64)>),
}

/// Parsed key → value map (a repeated key keeps its last value).
pub type Object = BTreeMap<String, Value>;

/// Parses one flat JSON object.
pub fn parse_object(bytes: &[u8]) -> Result<Object, String> {
    let Json::Obj(members) = json::parse(bytes)? else {
        return Err("expected a JSON object".to_string());
    };
    members
        .into_iter()
        .map(|(key, value)| match flat(value) {
            Some(value) => Ok((key, value)),
            None => Err(format!(
                "'{key}' must be a string, a non-negative integer, a boolean \
or an array of [int, int] pairs"
            )),
        })
        .collect()
}

fn flat(value: Json) -> Option<Value> {
    match value {
        Json::Str(s) => Some(Value::Str(s)),
        Json::UInt(n) => Some(Value::UInt(n)),
        Json::Bool(b) => Some(Value::Bool(b)),
        Json::Arr(items) => items
            .iter()
            .map(|item| match item.as_array()? {
                [Json::UInt(a), Json::UInt(b)] => Some((*a, *b)),
                _ => None,
            })
            .collect::<Option<_>>()
            .map(Value::Pairs),
        Json::Null | Json::Num(_) | Json::Obj(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_job_submission() {
        let obj = parse_object(
            br#"{"kind": "resilience", "base_seed": 7, "reps": 2,
                "defense": "degrade", "panic_cells": [[3, 1], [10, 2]],
                "delay_cells": [], "strict": true}"#,
        )
        .unwrap();
        assert_eq!(obj["kind"], Value::Str("resilience".into()));
        assert_eq!(obj["base_seed"], Value::UInt(7));
        assert_eq!(obj["panic_cells"], Value::Pairs(vec![(3, 1), (10, 2)]));
        assert_eq!(obj["delay_cells"], Value::Pairs(vec![]));
        assert_eq!(obj["strict"], Value::Bool(true));
    }

    #[test]
    fn rejects_trailing_garbage_and_nesting() {
        for bad in [
            &b""[..],
            b"{} x",
            br#"{"a": 1} {"b": 2}"#,
            br#"{"a": 1"#,
            br#"{"a": [[1, 2]], }"#,
            br#"[]"#,
            br#""kind""#,
            br#"7"#,
            br#"{"a": {"b": 1}}"#,
            br#"{"a": null}"#,
            br#"{"a": -1}"#,
            br#"{"a": -0}"#,
            br#"{"a": 1.5}"#,
            br#"{"a": 1e3}"#,
            br#"{"a": 18446744073709551616}"#,
            br#"{"a": [[1]]}"#,
            br#"{"a": [[1, 2, 3]]}"#,
            br#"{"a": [[1, -2]]}"#,
            br#"{"a": [[1, "2"]]}"#,
            br#"{"a": [1, 2]}"#,
            br#"{"a": [[[1, 2]]]}"#,
        ] {
            let shown = String::from_utf8_lossy(bad);
            assert!(parse_object(bad).is_err(), "{shown}");
        }
    }

    #[test]
    fn strings_are_utf8_with_every_json_escape() {
        let obj = parse_object("{\"k\": \"é\\u00e9\\\"\\\\\\n\"}".as_bytes()).unwrap();
        assert_eq!(obj["k"], Value::Str("éé\"\\\n".to_string()));
        assert!(parse_object(b"{\"k\": \"\xff\"}").is_err(), "not UTF-8");
    }

    #[test]
    fn a_repeated_key_keeps_its_last_value() {
        let obj = parse_object(br#"{"reps": 1, "reps": 2}"#).unwrap();
        assert_eq!(obj["reps"], Value::UInt(2));
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_object(b"{}").unwrap().is_empty());
        assert!(parse_object(b"  { }  ").unwrap().is_empty());
    }
}
