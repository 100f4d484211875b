//! A token-tree/item parser on top of the masking tokenizer.
//!
//! This is deliberately **not** a Rust grammar. The cross-file rules
//! (R12–R14, locks and allocation) only need to know, per file:
//!
//! * which functions are defined (free functions and `impl` methods, and
//!   whether they live in test code),
//! * which calls, macro invocations and lock events each function body
//!   contains.
//!
//! Everything is extracted from the tokenizer's *masked* lines, so string
//! literals and comments can never fabricate an item, and from a compound
//! token stream where `::`, `->` and `=>` are single tokens — which is what
//! makes `Vec<Vec<f64>>` (two closing angles) distinguishable from the
//! shift in `a >> b` without type information: inside generic brackets the
//! only `>` tokens left after arrow fusion are closers.

use crate::tokenizer::SourceFile;

/// One lexical token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tok {
    /// Identifier, keyword, number, or punctuation (`::`, `->`, `=>` are
    /// fused; every other punctuation char stands alone).
    text: String,
    /// 1-based line the token starts on.
    line: usize,
    /// Whether the token is an identifier/keyword/number.
    is_word: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `helper(…)` — a free function in scope.
    Free(String),
    /// `Type::method(…)` / `module::func(…)` — the last two path segments.
    Path(String, String),
    /// `.method(…)` — receiver type unknown.
    Method(String),
}

impl Callee {
    /// The bare function name being invoked.
    pub fn name(&self) -> &str {
        match self {
            Callee::Free(n) | Callee::Method(n) => n,
            Callee::Path(_, n) => n,
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// 1-based line of the callee token.
    pub line: usize,
    /// The callee as written.
    pub callee: Callee,
}

/// What a lock-relevant event does (see [`LockEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOp {
    /// `.lock()` on a `Mutex` — acquires a guard.
    Acquire,
    /// `.wait(guard)` / `.wait_timeout(guard, …)` on a `Condvar` (the
    /// zero-argument `.wait()` of an ordinary method is *not* one).
    CondWait,
    /// A call made while at least one guard is held.
    GuardedCall,
}

/// One lock-relevant event inside a function body, in source order. The
/// guard-lifetime model is the token-tree one: a guard bound by a plain
/// `let` lives until its enclosing block closes (or an explicit
/// `drop(binding)`); a guard consumed as a temporary inside a larger
/// expression lives until the end of the full statement — which is exactly
/// the model under which `x.lock().expect(…).pop().or_else(|| steal())`
/// calls `steal` *with the guard still held*.
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// 1-based line of the event.
    pub line: usize,
    /// Event kind.
    pub op: LockOp,
    /// Acquire/CondWait: normalized lock/condvar name — the last field
    /// segment of the receiver chain (`self.queues[slot].lock()` →
    /// `queues`). GuardedCall: the callee name.
    pub what: String,
    /// Normalized names of locks already held at this event.
    pub held: Vec<String>,
    /// Acquire: the guard is consumed by `.expect(…)`/`.unwrap()`.
    pub expect: bool,
    /// CondWait: the site sits inside a `while`/`loop` body.
    pub in_loop: bool,
    /// GuardedCall: the callee was invoked as `.method(…)`.
    pub method: bool,
}

/// A parsed function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`step`).
    pub name: String,
    /// Qualified name (`Harness::step` for impl methods, else the bare
    /// name).
    pub qual: String,
    /// `impl` type the method belongs to, if any.
    pub impl_type: Option<String>,
    /// Whether the signature is `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Whether the definition lives in `#[cfg(test)]`/`#[test]` code.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Call sites in the body, in order.
    pub calls: Vec<Call>,
    /// Macro invocations in the body (name without `!`).
    pub macros: Vec<(usize, String)>,
    /// Lock acquisitions, condvar waits, and calls-under-guard (R12/R14).
    pub locks: Vec<LockEvent>,
}

/// Everything the cross-file rules need from one file.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
}

/// Keywords that look like callees when followed by `(` but are not.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "fn", "let", "else", "move",
];

/// Lexes the masked lines into a compound token stream.
fn lex(src: &SourceFile) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let n = chars.len();
        let mut i = 0usize;
        while i < n {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                    is_word: true,
                });
            } else {
                // Fuse `::`, `->`, `=>`; leave every other punct single so
                // `>>` stays two closers for angle balancing.
                let two: Option<&str> = match (c, chars.get(i + 1)) {
                    (':', Some(':')) => Some("::"),
                    ('-', Some('>')) => Some("->"),
                    ('=', Some('>')) => Some("=>"),
                    _ => None,
                };
                match two {
                    Some(t) => {
                        toks.push(Tok {
                            text: t.to_string(),
                            line: lineno,
                            is_word: false,
                        });
                        i += 2;
                    }
                    None => {
                        toks.push(Tok {
                            text: c.to_string(),
                            line: lineno,
                            is_word: false,
                        });
                        i += 1;
                    }
                }
            }
        }
    }
    toks
}

/// Index one past the bracket that closes the opener at `open` (which must
/// be `(`, `[`, or `{`). Falls back to `toks.len()` on imbalance.
fn matching(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Skips a generic argument list starting at `<`; returns the index one
/// past the matching `>`. Arrow fusion at lex time means every remaining
/// `>` inside is a closer, so `Vec<Vec<f64>>` balances exactly.
fn skip_generics(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            // A parenthesized group may contain comparisons; skip it whole.
            "(" | "[" | "{" => i = matching(toks, i) - 1,
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Parses one file's facts out of its tokenized form. `in_test(line)` maps
/// a 1-based line to the tokenizer's test-region flag.
pub fn parse(src: &SourceFile) -> FileFacts {
    let toks = lex(src);
    let in_test = |line: usize| {
        src.lines
            .get(line.saturating_sub(1))
            .is_some_and(|l| l.in_test)
    };
    let mut facts = FileFacts::default();

    // impl-context stack: (type name, brace depth at which the impl body
    // opened). A `fn` token inside the top context is a method of it.
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    let mut depth = 0i64;
    // `pub` visibility is reset at every item delimiter.
    let mut saw_pub = false;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                saw_pub = false;
                i += 1;
            }
            "}" => {
                if impl_stack.last().is_some_and(|(_, d)| *d == depth) {
                    impl_stack.pop();
                }
                depth -= 1;
                saw_pub = false;
                i += 1;
            }
            ";" => {
                saw_pub = false;
                i += 1;
            }
            "pub" => {
                // `pub(crate)`/`pub(super)` are not public API.
                saw_pub = toks.get(i + 1).is_none_or(|n| n.text != "(");
                if !saw_pub {
                    i = matching(&toks, i + 1);
                } else {
                    i += 1;
                }
            }
            "impl" => {
                if let Some((ty, body_open)) = parse_impl_header(&toks, i) {
                    // Record the depth the impl body will open at.
                    impl_stack.push((ty, depth + 1));
                    depth += 1;
                    i = body_open + 1;
                } else {
                    i += 1;
                }
            }
            "enum" => i = skip_enum(&toks, i),
            "fn" => {
                let (def, next) = parse_fn(&toks, i, &impl_stack, saw_pub, &in_test);
                if let Some(def) = def {
                    facts.fns.push(def);
                }
                saw_pub = false;
                i = next;
            }
            _ => {
                i += 1;
            }
        }
    }
    facts
}

/// Parses `impl … {`: returns the implemented type name and the index of
/// the `{` opening the body. Handles `impl<T> Foo<T>`, `impl Trait for
/// Type`, and `where` clauses.
fn parse_impl_header(toks: &[Tok], impl_idx: usize) -> Option<(String, usize)> {
    let mut i = impl_idx + 1;
    if toks.get(i).is_some_and(|t| t.text == "<") {
        i = skip_generics(toks, i);
    }
    // Collect path segments until `for` / `{` / `where`.
    let mut head: Option<String> = None;
    let mut tail: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                return Some((tail.or(head)?, i));
            }
            "for" => {
                // Trait impl: the type follows.
                i += 1;
                let mut ty: Option<String> = None;
                while i < toks.len() {
                    match toks[i].text.as_str() {
                        "{" => return Some((ty?, i)),
                        "where" => {
                            while i < toks.len() && toks[i].text != "{" {
                                i += 1;
                            }
                            return Some((ty?, i));
                        }
                        "<" => i = skip_generics(toks, i),
                        "::" | "&" | "'" | "mut" => i += 1,
                        _ if toks[i].is_word => {
                            ty = Some(toks[i].text.clone());
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                return None;
            }
            "where" => {
                while i < toks.len() && toks[i].text != "{" {
                    i += 1;
                }
                return Some((tail.or(head)?, i));
            }
            "<" => {
                i = skip_generics(toks, i);
            }
            "::" => {
                i += 1;
            }
            _ if t.is_word => {
                if head.is_none() {
                    head = Some(t.text.clone());
                } else {
                    tail = Some(t.text.clone());
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Skips `enum Name { … }`: returns the index one past the closing brace,
/// so variant payloads never parse as items.
fn skip_enum(toks: &[Tok], enum_idx: usize) -> usize {
    if toks.get(enum_idx + 1).is_none_or(|t| !t.is_word) {
        return enum_idx + 1;
    }
    let mut i = enum_idx + 2;
    if toks.get(i).is_some_and(|t| t.text == "<") {
        i = skip_generics(toks, i);
    }
    while i < toks.len() && toks[i].text != "{" && toks[i].text != ";" {
        i += 1;
    }
    if i >= toks.len() || toks[i].text == ";" {
        return i;
    }
    matching(toks, i)
}

/// Parses a `fn` item starting at the `fn` token. Returns the def (if the
/// fn has a name) and the index one past the body (or the `;` for bodiless
/// trait declarations).
fn parse_fn(
    toks: &[Tok],
    fn_idx: usize,
    impl_stack: &[(String, i64)],
    is_pub: bool,
    in_test: &dyn Fn(usize) -> bool,
) -> (Option<FnDef>, usize) {
    let Some(name) = toks.get(fn_idx + 1).filter(|t| t.is_word) else {
        return (None, fn_idx + 1);
    };
    let mut i = fn_idx + 2;
    if toks.get(i).is_some_and(|t| t.text == "<") {
        i = skip_generics(toks, i);
    }
    if toks.get(i).is_none_or(|t| t.text != "(") {
        return (None, i);
    }
    // Past the parameter list, the return type and any where clause, to
    // the body or the `;`.
    i = matching(toks, i);
    while i < toks.len() && toks[i].text != "{" && toks[i].text != ";" {
        i += 1;
    }
    if i >= toks.len() || toks[i].text == ";" {
        // Trait method declaration without a body.
        return (
            Some(FnDef {
                name: name.text.clone(),
                qual: qualify(impl_stack, &name.text),
                impl_type: impl_stack.last().map(|(t, _)| t.clone()),
                is_pub,
                is_test: in_test(toks[fn_idx].line),
                line: toks[fn_idx].line,
                calls: Vec::new(),
                macros: Vec::new(),
                locks: Vec::new(),
            }),
            i + 1,
        );
    }
    let body_start = i;
    let body_end = matching(toks, body_start);
    let mut def = FnDef {
        name: name.text.clone(),
        qual: qualify(impl_stack, &name.text),
        impl_type: impl_stack.last().map(|(t, _)| t.clone()),
        is_pub,
        is_test: in_test(toks[fn_idx].line),
        line: toks[fn_idx].line,
        calls: Vec::new(),
        macros: Vec::new(),
        locks: Vec::new(),
    };
    scan_flat(toks, body_start + 1, body_end.saturating_sub(1), &mut def);
    scan_locks(toks, body_start + 1, body_end.saturating_sub(1), &mut def);
    (Some(def), body_end)
}

fn qualify(impl_stack: &[(String, i64)], name: &str) -> String {
    match impl_stack.last() {
        Some((ty, _)) => format!("{ty}::{name}"),
        None => name.to_string(),
    }
}

/// Flat body scan: calls and macros.
/// Nested fns are rare in this workspace and their bodies are attributed
/// to the enclosing def, which is conservative in the right direction for
/// the reachability rules (the enclosing fn can reach whatever the nested
/// one does).
fn scan_flat(toks: &[Tok], start: usize, end: usize, def: &mut FnDef) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_word {
            let next = toks.get(i + 1).map(|t| t.text.as_str());
            let prev = if i > start {
                Some(toks[i - 1].text.as_str())
            } else {
                None
            };
            if next == Some("!") {
                def.macros.push((t.line, t.text.clone()));
                i += 2;
                continue;
            }
            let call_paren = match next {
                Some("(") => Some(i + 1),
                // Turbofish: `name::<T>(…)`.
                Some("::") if toks.get(i + 2).is_some_and(|t| t.text == "<") => {
                    let after = skip_generics(toks, i + 2);
                    toks.get(after).filter(|t| t.text == "(").map(|_| after)
                }
                _ => None,
            };
            if let Some(_paren) = call_paren {
                if !NON_CALL_KEYWORDS.contains(&t.text.as_str()) && prev != Some("fn") {
                    let callee = match prev {
                        Some(".") => Some(Callee::Method(t.text.clone())),
                        Some("::") if i >= start + 2 && toks[i - 2].is_word => {
                            Some(Callee::Path(toks[i - 2].text.clone(), t.text.clone()))
                        }
                        _ => Some(Callee::Free(t.text.clone())),
                    };
                    if let Some(callee) = callee {
                        def.calls.push(Call {
                            line: t.line,
                            callee,
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

/// Index of the bracket that opens the closer at `close` (which must be
/// `)`, `]`, or `}`). Falls back to 0 on imbalance.
fn matching_back(toks: &[Tok], close: usize) -> usize {
    let mut depth = 0i64;
    let mut i = close;
    loop {
        match toks[i].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        if i == 0 {
            return 0;
        }
        i -= 1;
    }
}

/// Start index of the receiver chain feeding the `.` at `dot`: walks back
/// over idents (`self`, fields), `::` paths, and trailing index/call
/// groups, so `self.queues[slot]` and `p.state` are each one chain.
fn chain_start(toks: &[Tok], dot: usize) -> usize {
    let mut k = dot;
    loop {
        if k == 0 {
            return 0;
        }
        let mut seg = k - 1;
        while matches!(toks[seg].text.as_str(), ")" | "]") {
            let open = matching_back(toks, seg);
            if open == 0 {
                return 0;
            }
            seg = open - 1;
        }
        if !toks[seg].is_word {
            return seg + 1;
        }
        if seg == 0 {
            return 0;
        }
        match toks[seg - 1].text.as_str() {
            "." | "::" => k = seg - 1,
            _ => return seg,
        }
    }
}

/// Normalized lock identity for a receiver chain: the last word token at
/// bracket level zero (`self.queues[slot]` → `queues`), so every
/// acquisition of the same field unifies to one graph node. Name-based
/// identity over-approximates (two same-named fields of different types
/// unify), which errs toward reporting — the direction a deadlock gate
/// must err in.
fn lock_name(toks: &[Tok], start: usize, dot: usize) -> String {
    let mut depth = 0i64;
    let mut name: Option<&str> = None;
    let mut any: Option<&str> = None;
    for t in &toks[start..dot] {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            _ if t.is_word => {
                any = Some(&t.text);
                if depth == 0 {
                    name = Some(&t.text);
                }
            }
            _ => {}
        }
    }
    name.or(any).unwrap_or("<lock>").to_string()
}

/// Scoped-guard scan: tracks active `MutexGuard`s through the token tree
/// and records [`LockEvent`]s. Guard lifetimes follow the model documented
/// on [`LockEvent`]; `while`/`loop` bodies are tracked for the
/// `Condvar::wait`-in-predicate-loop obligation. Like [`scan_flat`],
/// closure bodies are attributed to the enclosing fn — conservative in the
/// right direction, since `.or_else(|| …)` runs while a same-statement
/// temporary guard is still held.
fn scan_locks(toks: &[Tok], start: usize, end: usize, def: &mut FnDef) {
    struct Guard {
        name: String,
        brace: i64,
        let_bound: bool,
        binding: Option<String>,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut brace = 0i64;
    let mut paren = 0i64;
    let mut loop_braces: Vec<i64> = Vec::new();
    let mut pending_loop = false;
    let mut i = start;
    while i < end {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                brace += 1;
                if pending_loop {
                    loop_braces.push(brace);
                    pending_loop = false;
                }
                i += 1;
                continue;
            }
            "}" => {
                guards.retain(|g| g.brace < brace);
                loop_braces.retain(|&d| d < brace);
                brace -= 1;
                i += 1;
                continue;
            }
            "(" | "[" => {
                paren += 1;
                i += 1;
                continue;
            }
            ")" | "]" => {
                paren -= 1;
                i += 1;
                continue;
            }
            ";" => {
                // End of a full statement: temporaries die here.
                if paren == 0 {
                    guards.retain(|g| g.let_bound);
                }
                i += 1;
                continue;
            }
            "while" | "loop" => {
                pending_loop = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        if t.is_word {
            let prev = if i > start {
                Some(toks[i - 1].text.as_str())
            } else {
                None
            };
            let is_call = toks.get(i + 1).is_some_and(|n| n.text == "(");
            if is_call && prev == Some(".") {
                if t.text == "lock" {
                    let cs = chain_start(toks, i - 1);
                    let name = lock_name(toks, cs, i - 1);
                    // Walk the consumer chain past the guard-preserving
                    // adapters: `.expect(…)`/`.unwrap()` (the poisoning
                    // policy R12 audits) and `.unwrap_or_else(…)` (the
                    // `PoisonError::into_inner` recovery idiom).
                    let mut j = matching(toks, i + 1);
                    let mut expect = false;
                    while j < end
                        && toks[j].text == "."
                        && toks.get(j + 1).is_some_and(|t| {
                            matches!(t.text.as_str(), "expect" | "unwrap" | "unwrap_or_else")
                        })
                        && toks.get(j + 2).is_some_and(|t| t.text == "(")
                    {
                        expect |= toks[j + 1].text != "unwrap_or_else";
                        j = matching(toks, j + 2);
                    }
                    let consumed_inline = j < end && toks[j].text == ".";
                    // `let g = recv.lock()…;` binds the guard to `g`.
                    let mut let_bound = false;
                    let mut binding = None;
                    if !consumed_inline
                        && cs >= 2
                        && toks[cs - 1].text == "="
                        && toks[cs - 2].is_word
                    {
                        let b = cs - 2;
                        let lead = if b >= 1 && toks[b - 1].text == "mut" {
                            b.checked_sub(2)
                        } else {
                            b.checked_sub(1)
                        };
                        if lead.is_some_and(|l| toks[l].text == "let") {
                            let_bound = true;
                            binding = Some(toks[b].text.clone());
                        }
                    }
                    def.locks.push(LockEvent {
                        line: t.line,
                        op: LockOp::Acquire,
                        what: name.clone(),
                        held: guards.iter().map(|g| g.name.clone()).collect(),
                        expect,
                        in_loop: false,
                        method: true,
                    });
                    guards.push(Guard {
                        name,
                        brace,
                        let_bound,
                        binding,
                    });
                    i += 1;
                    continue;
                }
                if matches!(t.text.as_str(), "wait" | "wait_timeout" | "wait_while")
                    && toks.get(i + 2).is_some_and(|t| t.text != ")")
                {
                    // A condvar wait takes the guard as an argument; the
                    // zero-arg `.wait()` of an ordinary method does not.
                    let cs = chain_start(toks, i - 1);
                    let name = lock_name(toks, cs, i - 1);
                    def.locks.push(LockEvent {
                        line: t.line,
                        op: LockOp::CondWait,
                        what: name,
                        held: guards.iter().map(|g| g.name.clone()).collect(),
                        expect: false,
                        in_loop: !loop_braces.is_empty(),
                        method: true,
                    });
                    i += 1;
                    continue;
                }
            }
            if is_call && !guards.is_empty() {
                if t.text == "drop" && prev != Some(".") {
                    // `drop(binding)` releases a named guard early.
                    if let Some(arg) = toks.get(i + 2).filter(|a| a.is_word) {
                        if toks.get(i + 3).is_some_and(|t| t.text == ")") {
                            guards.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
                        }
                    }
                } else if !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                    && prev != Some("fn")
                    && !matches!(t.text.as_str(), "expect" | "unwrap" | "unwrap_or_else")
                {
                    def.locks.push(LockEvent {
                        line: t.line,
                        op: LockOp::GuardedCall,
                        what: t.text.clone(),
                        held: guards.iter().map(|g| g.name.clone()).collect(),
                        expect: false,
                        in_loop: false,
                        method: prev == Some("."),
                    });
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn facts(src: &str) -> FileFacts {
        parse(&tokenize(src))
    }

    #[test]
    fn fuses_compound_tokens() {
        let toks = lex(&tokenize("a::b -> c => d"));
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["a", "::", "b", "->", "c", "=>", "d"]);
    }

    #[test]
    fn parses_free_fn_and_method() {
        let f = facts(
            "pub fn free(x: u8) -> Vec<Vec<f64>> { helper(x); v.push(1); }\n\
             impl Harness { fn step(&mut self) { self.world.advance(); } }\n",
        );
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].qual, "free");
        assert!(f.fns[0].is_pub);
        assert_eq!(f.fns[1].qual, "Harness::step");
        assert!(!f.fns[1].is_pub);
        let callees: Vec<&str> = f.fns[1].calls.iter().map(|c| c.callee.name()).collect();
        assert_eq!(callees, vec!["advance"]);
    }

    #[test]
    fn trait_impl_attributes_methods_to_the_type() {
        let f = facts("impl Display for AttackType { fn fmt(&self) { write(); } }\n");
        assert_eq!(f.fns[0].qual, "AttackType::fmt");
    }

    #[test]
    fn records_calls_and_paths() {
        let f = facts(
            "fn f() {\n  let x = canbus::rewrite_signal(a, b);\n  let y = opt.unwrap();\n  panic!(\"boom\");\n  Type::make(1);\n}\n",
        );
        let d = &f.fns[0];
        assert!(d
            .calls
            .iter()
            .any(|c| c.callee == Callee::Path("canbus".into(), "rewrite_signal".into())));
        assert!(d
            .calls
            .iter()
            .any(|c| c.callee == Callee::Path("Type".into(), "make".into())));
        assert!(d
            .calls
            .iter()
            .any(|c| c.callee == Callee::Method("unwrap".into())));
        assert!(d.macros.iter().any(|(_, m)| m == "panic"));
    }

    #[test]
    fn test_fns_are_flagged() {
        let f = facts("#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn live() {}\n");
        let t = f.fns.iter().find(|d| d.name == "t").unwrap();
        assert!(t.is_test);
        let live = f.fns.iter().find(|d| d.name == "live").unwrap();
        assert!(!live.is_test);
    }

    fn lock_events(src: &str) -> Vec<LockEvent> {
        facts(src).fns.remove(0).locks
    }

    #[test]
    fn temporary_guard_spans_the_full_statement() {
        // The pool-bug shape: the chain's `.or_else` closure runs while the
        // temporary guard from `.lock()` is still alive.
        let ev = lock_events(
            "fn participate(&self) {\n\
               let task = self.queues[slot].lock().expect(\"q\").pop_front().or_else(|| self.steal(slot));\n\
               let next = self.other_work();\n\
             }\n",
        );
        let acq = ev.iter().find(|e| e.op == LockOp::Acquire).unwrap();
        assert_eq!(acq.what, "queues");
        assert!(acq.expect);
        let steal = ev.iter().find(|e| e.what == "steal").unwrap();
        assert_eq!(steal.op, LockOp::GuardedCall);
        assert_eq!(steal.held, vec!["queues".to_string()]);
        // The guard died at the `;`, so the next statement's call is free:
        // no guard held means no event recorded at all.
        assert!(!ev.iter().any(|e| e.what == "other_work"));
    }

    #[test]
    fn let_bound_guard_lives_to_block_close_or_drop() {
        let ev = lock_events(
            "fn f(&self) {\n\
               {\n\
                 let g = self.state.lock().unwrap();\n\
                 self.inside();\n\
               }\n\
               self.outside();\n\
               let h = self.state.lock().unwrap();\n\
               drop(h);\n\
               self.after_drop();\n\
             }\n",
        );
        assert_eq!(
            ev.iter().find(|e| e.what == "inside").unwrap().held,
            vec!["state".to_string()]
        );
        // Calls made after the guard is gone record no event.
        assert!(!ev.iter().any(|e| e.what == "outside"));
        assert!(!ev.iter().any(|e| e.what == "after_drop"));
    }

    #[test]
    fn unwrap_or_else_recovery_preserves_the_guard_without_expect() {
        let ev = lock_events(
            "fn f(&self) {\n\
               let g = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
               self.guarded();\n\
             }\n",
        );
        let acq = ev.iter().find(|e| e.op == LockOp::Acquire).unwrap();
        assert!(!acq.expect);
        assert_eq!(
            ev.iter().find(|e| e.what == "guarded").unwrap().held,
            vec!["state".to_string()]
        );
    }

    #[test]
    fn condvar_wait_arity_and_loop_detection() {
        let ev = lock_events(
            "fn f(&self) {\n\
               let mut done = self.done.lock().unwrap();\n\
               while *done < self.total {\n\
                 done = self.done_cv.wait(done).unwrap();\n\
               }\n\
             }\n",
        );
        let w = ev.iter().find(|e| e.op == LockOp::CondWait).unwrap();
        assert_eq!(w.what, "done_cv");
        assert!(w.in_loop);
        assert_eq!(w.held, vec!["done".to_string()]);
        // A zero-argument `.wait()` is an ordinary guarded call, not a
        // condvar wait.
        let ev = lock_events("fn g(&self) { let l = self.m.lock().unwrap(); job.wait(); }\n");
        assert!(!ev.iter().any(|e| e.op == LockOp::CondWait));
        let call = ev.iter().find(|e| e.what == "wait").unwrap();
        assert_eq!(call.op, LockOp::GuardedCall);
        assert_eq!(call.held, vec!["m".to_string()]);
    }

    #[test]
    fn nested_acquire_records_held_set() {
        let ev = lock_events(
            "fn f(&self) {\n\
               let a = self.alpha.lock().unwrap();\n\
               let b = self.beta.lock().unwrap();\n\
             }\n",
        );
        let beta = ev.iter().find(|e| e.what == "beta").unwrap();
        assert_eq!(beta.op, LockOp::Acquire);
        assert_eq!(beta.held, vec!["alpha".to_string()]);
    }
}
