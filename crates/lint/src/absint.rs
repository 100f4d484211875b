//! Interval abstract interpretation over the lowered IR — rules R9–R11.
//!
//! The lexical (R1, R3) and syntactic/taint (R6, R7) layers check *shape*;
//! this layer checks *numbers*. Every function body lowered by
//! [`crate::ir`] is evaluated over an abstract domain of closed `f64`
//! intervals with a separate may-be-NaN flag, and three rule families read
//! the results:
//!
//! * **R9 envelope-soundness** — every value flowing into an actuator
//!   `encode`/`encode_into` sink is provably inside the physical plant
//!   limits declared in `units::limits`.
//! * **R10 threshold-consistency** — the canonical gate/IDS/escalation
//!   constants satisfy the cross-constant inequalities the controller
//!   dynamics assume, and the runtime config constructors reproduce them.
//! * **R11 clamp-hygiene** — no inverted clamps, no provably-dead clamps,
//!   no NaN-producing arithmetic reaching actuation unguarded.
//!
//! # Soundness stance
//!
//! The analysis is *sound for boundedness, best-effort for NaN*. Anything
//! the lowering or evaluator does not model becomes [`AbsVal::Opaque`]
//! (no information), which can never be proven bounded — surprises surface
//! as R9 "unprovable" findings rather than silently passing. The
//! `maybe_nan` flag, by contrast, tracks *operations that can manufacture
//! NaN from ordinary inputs* (`0/0`, `sqrt` of a possibly-negative value,
//! `asin` outside `[-1, 1]`, …): an unknown value is treated as an unknown
//! *number*, not as possibly-NaN ("Unknown ≠ NaN"), so ⊤ carries
//! `maybe_nan = false`. Overflow-to-infinity is out of scope.
//!
//! Interval refinement at guards is NaN-aware: a *positive* ordered
//! comparison (`x > 0.0` taken true) proves the operand is not NaN,
//! because every ordered comparison with a NaN operand is false. This is
//! what proves divisions like `a / (2.0 * gap_err)` clean under a
//! `gap_err > 0.0` guard — `next_up` gives the exact strict bound.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::diag::{Diagnostic, Rule, Severity};
use crate::interval::{next_down, next_up, Interval, TOP};
use crate::ir::{lower, BinOp, Expr, FileIr, Stmt, UnOp};
use crate::tokenizer::SourceFile;

/// Inlining/summary recursion depth cap.
const MAX_DEPTH: u32 = 24;
/// Loop fixpoint iteration cap (widening converges far earlier).
const MAX_LOOP_ITERS: u32 = 10;
/// Provenance-chain length cap per value.
const MAX_CHAIN: usize = 6;
/// Bodies with at most this many top-level statements inline with actual
/// arguments; larger bodies use a memoized ⊤-parameter summary.
const INLINE_STMTS: usize = 3;

/// Fallback physical accel floor (m/s²) when `PHYS_BRAKE_MIN_MPS2` is not
/// in scope (fixture files); mirrors `units::limits`.
const FALLBACK_ACCEL_MIN: f64 = -9.8;
/// Fallback physical accel ceiling (m/s²).
const FALLBACK_ACCEL_MAX: f64 = 5.0;
/// Fallback physical steering limit (degrees).
const FALLBACK_STEER_DEG: f64 = 5.0;

/// Miles-per-hour → metres-per-second conversion used by `from_mph`.
const MPH_TO_MPS: f64 = 0.44704;

/// An abstract number: interval shape, NaN possibility, and a short
/// human-readable provenance chain for diagnostics.
#[derive(Debug, Clone)]
pub struct NumVal {
    /// Interval over-approximation of the value.
    pub iv: Interval,
    /// Whether a NaN-producing operation may have fed this value.
    pub maybe_nan: bool,
    /// Most recent provenance notes (capped at a small length).
    pub chain: Vec<String>,
}

impl NumVal {
    /// The unconstrained, clean number (⊤; not-NaN by convention).
    pub fn top() -> Self {
        NumVal {
            iv: TOP,
            maybe_nan: false,
            chain: Vec::new(),
        }
    }

    /// The singleton `[c, c]`.
    pub fn point(c: f64) -> Self {
        NumVal {
            iv: Interval::point(c),
            maybe_nan: false,
            chain: Vec::new(),
        }
    }

    fn push(&mut self, note: String) {
        if self.chain.len() < MAX_CHAIN {
            self.chain.push(note);
        }
    }

    fn describe(&self) -> String {
        let nan = if self.maybe_nan { ", may be NaN" } else { "" };
        if self.chain.is_empty() {
            format!("[{}, {}]{}", self.iv.lo, self.iv.hi, nan)
        } else {
            format!(
                "[{}, {}]{} (via {})",
                self.iv.lo,
                self.iv.hi,
                nan,
                self.chain.join(" ← ")
            )
        }
    }
}

/// An abstract value: a number, a field map, or no information.
#[derive(Debug, Clone)]
pub enum AbsVal {
    /// A numeric value.
    Num(NumVal),
    /// A struct as a map from field name to abstract value.
    Struct(BTreeMap<String, AbsVal>),
    /// Unmodelled (⊤ without even a numeric shape).
    Opaque,
}

impl AbsVal {
    fn as_num(&self) -> Option<&NumVal> {
        match self {
            AbsVal::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Least upper bound (join). Mismatched shapes collapse to `Opaque`.
    fn join(a: &AbsVal, b: &AbsVal) -> AbsVal {
        match (a, b) {
            (AbsVal::Num(x), AbsVal::Num(y)) => AbsVal::Num(NumVal {
                iv: x.iv.join(y.iv),
                maybe_nan: x.maybe_nan || y.maybe_nan,
                chain: merge_chain(&x.chain, &y.chain),
            }),
            (AbsVal::Struct(x), AbsVal::Struct(y)) => {
                let mut out = BTreeMap::new();
                for (k, vx) in x {
                    if let Some(vy) = y.get(k) {
                        out.insert(k.clone(), AbsVal::join(vx, vy));
                    }
                }
                AbsVal::Struct(out)
            }
            _ => AbsVal::Opaque,
        }
    }

    /// Widening: like join, but moved interval bounds jump to ±∞ so loop
    /// fixpoints terminate.
    fn widen(prev: &AbsVal, next: &AbsVal) -> AbsVal {
        match (prev, next) {
            (AbsVal::Num(x), AbsVal::Num(y)) => {
                let w = Interval::widen(x.iv, y.iv);
                let mut chain = merge_chain(&x.chain, &y.chain);
                let marker = "widened in loop fixpoint".to_string();
                if !iv_bits_eq(w, x.iv) && chain.len() < MAX_CHAIN && !chain.contains(&marker) {
                    chain.push(marker);
                }
                AbsVal::Num(NumVal {
                    iv: w,
                    maybe_nan: x.maybe_nan || y.maybe_nan,
                    chain,
                })
            }
            (AbsVal::Struct(x), AbsVal::Struct(y)) => {
                let mut out = BTreeMap::new();
                for (k, vx) in x {
                    if let Some(vy) = y.get(k) {
                        out.insert(k.clone(), AbsVal::widen(vx, vy));
                    }
                }
                AbsVal::Struct(out)
            }
            _ => AbsVal::Opaque,
        }
    }

    /// Semantic equality for fixpoint detection (bitwise on bounds; the
    /// provenance chain is ignored).
    fn same(a: &AbsVal, b: &AbsVal) -> bool {
        match (a, b) {
            (AbsVal::Num(x), AbsVal::Num(y)) => {
                iv_bits_eq(x.iv, y.iv) && x.maybe_nan == y.maybe_nan
            }
            (AbsVal::Struct(x), AbsVal::Struct(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .all(|(k, vx)| y.get(k).is_some_and(|vy| AbsVal::same(vx, vy)))
            }
            (AbsVal::Opaque, AbsVal::Opaque) => true,
            _ => false,
        }
    }
}

/// Bitwise interval equality — fixpoint detection must not use float `==`
/// semantics (clippy's `float_cmp` applies to the linter's own source).
fn iv_bits_eq(a: Interval, b: Interval) -> bool {
    a.lo.to_bits() == b.lo.to_bits() && a.hi.to_bits() == b.hi.to_bits()
}

fn merge_chain(a: &[String], b: &[String]) -> Vec<String> {
    let mut out: Vec<String> = a.to_vec();
    for s in b {
        if out.len() >= MAX_CHAIN {
            break;
        }
        if !out.contains(s) {
            out.push(s.clone());
        }
    }
    out
}

/// Abstract environment: dotted place → value (`"x"`,
/// `"self.last_control"`, `"%ret"`).
type Env = BTreeMap<String, AbsVal>;

fn join_env(mut a: Env, b: Env) -> Env {
    for (k, vb) in b {
        match a.remove(&k) {
            Some(va) => {
                let j = AbsVal::join(&va, &vb);
                a.insert(k, j);
            }
            None => {
                a.insert(k, vb);
            }
        }
    }
    a
}

fn widen_env(prev: &Env, next: Env) -> Env {
    let mut out = Env::new();
    for (k, vn) in next {
        match prev.get(&k) {
            Some(vp) => {
                out.insert(k, AbsVal::widen(vp, &vn));
            }
            None => {
                out.insert(k, vn);
            }
        }
    }
    for (k, vp) in prev {
        out.entry(k.clone()).or_insert_with(|| vp.clone());
    }
    out
}

fn env_same(a: &Env, b: &Env) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(k, va)| b.get(k).is_some_and(|vb| AbsVal::same(va, vb)))
}

/// A value observed flowing into an actuator encode sink.
#[derive(Debug, Clone)]
struct SinkObs {
    file: usize,
    line: usize,
    val: AbsVal,
}

/// A `clamp(lo, hi)` site with its receiver and bound values.
#[derive(Debug, Clone)]
struct ClampObs {
    file: usize,
    line: usize,
    recv: AbsVal,
    lo: AbsVal,
    hi: AbsVal,
}

/// Per-evaluation context: the file the code under evaluation came from
/// (for observation attribution), the enclosing `impl` type, call depth.
#[derive(Clone)]
struct Ctx {
    file: usize,
    impl_type: Option<String>,
    depth: u32,
}

/// One file prepared for semantic analysis.
pub struct SemFile {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    /// Whether R9 sink checks apply to this file.
    pub r9: bool,
    /// Whether R11 clamp checks apply to this file.
    pub r11: bool,
    /// The tokenized source (for snippets).
    pub src: SourceFile,
    /// The lowered IR.
    pub ir: FileIr,
}

impl SemFile {
    /// Lowers `src` and packages it for [`semantic_rules`].
    pub fn new(rel: String, src: SourceFile, r9: bool, r11: bool) -> Self {
        let ir = lower(&src);
        SemFile {
            rel,
            r9,
            r11,
            src,
            ir,
        }
    }
}

/// The whole-program abstract interpreter.
struct Analyzer<'a> {
    files: &'a [SemFile],
    /// `Type::name` (or bare name for free fns) → definitions.
    fn_by_qual: HashMap<String, Vec<(usize, usize)>>,
    /// Bare name → definitions.
    fn_by_name: HashMap<String, Vec<(usize, usize)>>,
    /// Const name (last segment) → `(file, const index)` definitions.
    const_defs: HashMap<String, Vec<(usize, usize)>>,
    const_cache: HashMap<String, Option<AbsVal>>,
    const_busy: HashSet<String>,
    /// Memoized ⊤-parameter summaries; `None` marks in-progress (cycle).
    summaries: HashMap<(usize, usize), Option<AbsVal>>,
    /// Functions currently being inlined (recursion guard).
    busy: HashSet<(usize, usize)>,
    /// When > 0, observations are suppressed (loop pre-fixpoint passes and
    /// const-initializer evaluation).
    muted: u32,
    sinks: Vec<SinkObs>,
    clamps: Vec<ClampObs>,
}

impl<'a> Analyzer<'a> {
    fn new(files: &'a [SemFile]) -> Self {
        let mut fn_by_qual: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        let mut fn_by_name: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        let mut const_defs: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, g) in f.ir.fns.iter().enumerate() {
                fn_by_qual.entry(g.qual.clone()).or_default().push((fi, gi));
                fn_by_name.entry(g.name.clone()).or_default().push((fi, gi));
            }
            for (ci, c) in f.ir.consts.iter().enumerate() {
                const_defs.entry(c.name.clone()).or_default().push((fi, ci));
            }
        }
        Analyzer {
            files,
            fn_by_qual,
            fn_by_name,
            const_defs,
            const_cache: HashMap::new(),
            const_busy: HashSet::new(),
            summaries: HashMap::new(),
            busy: HashSet::new(),
            muted: 0,
            sinks: Vec::new(),
            clamps: Vec::new(),
        }
    }

    /// Analyzes every non-test function once (summaries are memoized, so
    /// functions reached earlier through calls are not re-walked).
    fn run(&mut self) {
        for fi in 0..self.files.len() {
            for gi in 0..self.files[fi].ir.fns.len() {
                if !self.files[fi].ir.fns[gi].is_test {
                    self.summary(fi, gi);
                }
            }
        }
    }

    /// The value of a named constant, evaluated lazily with a cycle guard.
    fn const_val(&mut self, name: &str) -> Option<AbsVal> {
        if let Some(v) = self.const_cache.get(name) {
            return v.clone();
        }
        let defs = self.const_defs.get(name)?;
        if defs.len() != 1 {
            return None;
        }
        let (fi, ci) = defs[0];
        if !self.const_busy.insert(name.to_string()) {
            return None;
        }
        let files = self.files;
        let expr = &files[fi].ir.consts[ci].expr;
        self.muted += 1;
        let mut env = Env::new();
        let ctx = Ctx {
            file: fi,
            impl_type: None,
            depth: 0,
        };
        let v = self.eval(expr, &mut env, &ctx);
        self.muted -= 1;
        self.const_busy.remove(name);
        let out = Some(v);
        self.const_cache.insert(name.to_string(), out.clone());
        out
    }

    /// A constant that resolves to a single point, with its def site.
    fn const_point(&mut self, name: &str) -> Option<(f64, usize, usize)> {
        let v = self.const_val(name)?;
        let n = v.as_num()?;
        if n.iv.lo.to_bits() != n.iv.hi.to_bits() {
            return None;
        }
        let point = n.iv.lo;
        let defs = self.const_defs.get(name)?;
        let (fi, ci) = *defs.first()?;
        let line = self.files[fi].ir.consts[ci].line;
        Some((point, fi, line))
    }

    /// ⊤-parameter summary of one function, memoized; cycles yield Opaque.
    fn summary(&mut self, fi: usize, gi: usize) -> AbsVal {
        let key = (fi, gi);
        if let Some(v) = self.summaries.get(&key) {
            return match v {
                Some(v) => v.clone(),
                None => AbsVal::Opaque,
            };
        }
        self.summaries.insert(key, None);
        let files = self.files;
        let g = &files[fi].ir.fns[gi];
        let mut env = Env::new();
        for p in &g.params {
            let v = if p == "self" {
                AbsVal::Opaque
            } else {
                AbsVal::Num(NumVal::top())
            };
            env.insert(p.clone(), v);
        }
        let ctx = Ctx {
            file: fi,
            impl_type: g.impl_type.clone(),
            depth: 0,
        };
        let mut v = self.eval(&g.body, &mut env, &ctx);
        if let Some(r) = env.get("%ret") {
            v = AbsVal::join(&v, r);
        }
        self.summaries.insert(key, Some(v.clone()));
        v
    }

    /// Calls a resolved function with actual argument values: inlines small
    /// bodies, falls back to the ⊤-parameter summary otherwise.
    fn call_fn(&mut self, fi: usize, gi: usize, argvals: Vec<AbsVal>, ctx: &Ctx) -> AbsVal {
        let key = (fi, gi);
        let files = self.files;
        let g = &files[fi].ir.fns[gi];
        let small = match &g.body {
            Expr::Block(stmts, _) => stmts.len() <= INLINE_STMTS,
            _ => true,
        };
        if small && ctx.depth < MAX_DEPTH && !self.busy.contains(&key) {
            self.busy.insert(key);
            let mut env = Env::new();
            for (i, p) in g.params.iter().enumerate() {
                let v = argvals.get(i).cloned().unwrap_or(AbsVal::Opaque);
                env.insert(p.clone(), v);
            }
            let nctx = Ctx {
                file: fi,
                impl_type: g.impl_type.clone(),
                depth: ctx.depth + 1,
            };
            let mut v = self.eval(&g.body, &mut env, &nctx);
            if let Some(r) = env.get("%ret") {
                v = AbsVal::join(&v, r);
            }
            self.busy.remove(&key);
            v
        } else {
            let v = self.summary(fi, gi);
            // A summary computed with ⊤ params cannot launder a possibly-NaN
            // argument into a provably-clean result.
            let arg_nan = argvals
                .iter()
                .any(|a| a.as_num().is_some_and(|n| n.maybe_nan));
            match (v, arg_nan) {
                (AbsVal::Num(mut n), true) => {
                    n.maybe_nan = true;
                    AbsVal::Num(n)
                }
                (v, _) => v,
            }
        }
    }

    /// Resolves a call path to a function definition, `Self`-substituted.
    fn resolve_call(&self, callee: &[String], ctx: &Ctx) -> Option<(usize, usize)> {
        let last = callee.last()?;
        if callee.len() >= 2 {
            let mut owner = callee[callee.len() - 2].clone();
            if owner == "Self" {
                owner = ctx.impl_type.clone()?;
            }
            let qual = format!("{owner}::{last}");
            if let Some(defs) = self.fn_by_qual.get(&qual) {
                if defs.len() == 1 {
                    return Some(defs[0]);
                }
            }
        }
        // Free function (its qual is its bare name), possibly spelled
        // behind a module path (`safety::envelope_clamp`).
        if let Some(defs) = self.fn_by_qual.get(last.as_str()) {
            if defs.len() == 1 {
                return Some(defs[0]);
            }
        }
        if callee.len() == 1 {
            if let Some(defs) = self.fn_by_name.get(last.as_str()) {
                if defs.len() == 1 {
                    return Some(defs[0]);
                }
            }
        }
        None
    }

    fn record_sink(&mut self, ctx: &Ctx, line: usize, val: AbsVal) {
        let r9 = self.files[ctx.file].r9;
        let encoderish = ctx
            .impl_type
            .as_deref()
            .is_some_and(|t| t == "CommandEncoder" || t == "Encoder");
        if self.muted == 0 && r9 && !encoderish {
            self.sinks.push(SinkObs {
                file: ctx.file,
                line,
                val,
            });
        }
    }

    fn eval(&mut self, e: &Expr, env: &mut Env, ctx: &Ctx) -> AbsVal {
        match e {
            Expr::Num(n) => AbsVal::Num(NumVal::point(*n)),
            Expr::Path(segs) => {
                let key = segs.join("::");
                if let Some(v) = env.get(&key) {
                    return v.clone();
                }
                match segs.last() {
                    Some(last) => self.const_val(last).unwrap_or(AbsVal::Opaque),
                    None => AbsVal::Opaque,
                }
            }
            Expr::Field(base, field) => {
                if let Some(place) = e.as_place() {
                    if let Some(v) = env.get(&place) {
                        return v.clone();
                    }
                }
                match self.eval(base, env, ctx) {
                    AbsVal::Struct(m) => m.get(field).cloned().unwrap_or(AbsVal::Opaque),
                    _ => AbsVal::Opaque,
                }
            }
            Expr::Unary(UnOp::Neg, inner) => match self.eval(inner, env, ctx) {
                AbsVal::Num(n) => AbsVal::Num(NumVal {
                    iv: n.iv.neg(),
                    maybe_nan: n.maybe_nan,
                    chain: n.chain,
                }),
                _ => AbsVal::Opaque,
            },
            Expr::Unary(UnOp::Not, _) => AbsVal::Opaque,
            Expr::Bin(op, a, b) => {
                let va = self.eval(a, env, ctx);
                let vb = self.eval(b, env, ctx);
                eval_bin(*op, &va, &vb)
            }
            Expr::Call { callee, args, line } => self.eval_call(callee, args, *line, env, ctx),
            Expr::Method {
                recv,
                name,
                args,
                line,
            } => self.eval_method(recv, name, args, *line, env, ctx),
            Expr::Struct { fields, base, .. } => {
                let mut m = match base {
                    Some(b) => match self.eval(b, env, ctx) {
                        AbsVal::Struct(m) => m,
                        _ => BTreeMap::new(),
                    },
                    None => BTreeMap::new(),
                };
                for (k, fe) in fields {
                    let v = self.eval(fe, env, ctx);
                    m.insert(k.clone(), v);
                }
                AbsVal::Struct(m)
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                // The condition is evaluated for its observations (an
                // encode sink or clamp can live inside it — e.g. `if
                // encoder.encode_into(&v).is_err()`); `refine` only reads
                // its comparison structure.
                let _ = self.eval(cond, env, ctx);
                let mut env_t = env.clone();
                let mut env_e = env.clone();
                self.refine(cond, true, &mut env_t, ctx);
                self.refine(cond, false, &mut env_e, ctx);
                let vt = self.eval(then_branch, &mut env_t, ctx);
                let ve = self.eval(else_branch, &mut env_e, ctx);
                *env = join_env(env_t, env_e);
                AbsVal::join(&vt, &ve)
            }
            Expr::Match(arms) => {
                if arms.is_empty() {
                    return AbsVal::Opaque;
                }
                let _ = self.eval(&arms[0], env, ctx);
                let mut out: Option<AbsVal> = None;
                let mut joined: Option<Env> = None;
                for arm in &arms[1..] {
                    let mut aenv = env.clone();
                    let v = self.eval(arm, &mut aenv, ctx);
                    out = Some(match out {
                        Some(prev) => AbsVal::join(&prev, &v),
                        None => v,
                    });
                    joined = Some(match joined {
                        Some(j) => join_env(j, aenv),
                        None => aenv,
                    });
                }
                if let Some(j) = joined {
                    *env = j;
                }
                out.unwrap_or(AbsVal::Opaque)
            }
            Expr::Block(stmts, tail) => self.exec_block(stmts, tail.as_deref(), env, ctx),
            Expr::Unknown => AbsVal::Opaque,
        }
    }

    fn eval_call(
        &mut self,
        callee: &[String],
        args: &[Expr],
        line: usize,
        env: &mut Env,
        ctx: &Ctx,
    ) -> AbsVal {
        let vals: Vec<AbsVal> = args.iter().map(|a| self.eval(a, env, ctx)).collect();
        let Some(last) = callee.last().cloned() else {
            return AbsVal::Opaque;
        };
        // UFCS / free-function spellings of the actuator sink.
        if last == "encode_into" || (last == "encode" && vals.len() == 1) {
            self.record_sink(ctx, line, vals.first().cloned().unwrap_or(AbsVal::Opaque));
        }
        // Newtype constructor `Self(x)`.
        if callee.len() == 1 && last == "Self" && vals.len() == 1 {
            return vals.into_iter().next().unwrap_or(AbsVal::Opaque);
        }
        if let Some((fi, gi)) = self.resolve_call(callee, ctx) {
            return self.call_fn(fi, gi, vals, ctx);
        }
        // Unit-newtype constructors generated by the `quantity!` macro are
        // invisible to the lowering; model them directly. `new` here means
        // a 1-arg newtype wrapper (`Seconds::new`) — multi-field `new`s in
        // ordinary impls resolve above before this table is consulted.
        if vals.len() == 1 {
            let scale = match last.as_str() {
                "from_mps2" | "from_mps" | "from_radians" | "meters" | "new" | "Some" | "Ok" => {
                    Some(1.0)
                }
                "from_mph" => Some(MPH_TO_MPS),
                "from_degrees" => Some(std::f64::consts::PI / 180.0),
                _ => None,
            };
            if let Some(s) = scale {
                let v = vals.into_iter().next().unwrap_or(AbsVal::Opaque);
                return match v {
                    AbsVal::Num(n) => AbsVal::Num(NumVal {
                        iv: n.iv.mul(Interval::point(s)),
                        maybe_nan: n.maybe_nan,
                        chain: n.chain,
                    }),
                    other => other,
                };
            }
        }
        AbsVal::Opaque
    }

    fn eval_method(
        &mut self,
        recv_e: &Expr,
        name: &str,
        args: &[Expr],
        line: usize,
        env: &mut Env,
        ctx: &Ctx,
    ) -> AbsVal {
        let recv = self.eval(recv_e, env, ctx);
        let vals: Vec<AbsVal> = args.iter().map(|a| self.eval(a, env, ctx)).collect();

        if name == "encode_into" || (name == "encode" && vals.len() == 1) {
            self.record_sink(ctx, line, vals.first().cloned().unwrap_or(AbsVal::Opaque));
        }

        let rnum = recv.as_num().cloned();
        match (name, vals.len()) {
            ("clamp", 2) => {
                if self.muted == 0 && self.files[ctx.file].r11 {
                    self.clamps.push(ClampObs {
                        file: ctx.file,
                        line,
                        recv: recv.clone(),
                        lo: vals[0].clone(),
                        hi: vals[1].clone(),
                    });
                }
                let (lo, hi) = match (vals[0].as_num(), vals[1].as_num()) {
                    (Some(lo), Some(hi)) => (lo.clone(), hi.clone()),
                    _ => return AbsVal::Opaque,
                };
                if lo.iv.lo > hi.iv.hi {
                    // Inverted bounds: `f64::clamp` panics; nothing flows on.
                    return AbsVal::Opaque;
                }
                let base = rnum.unwrap_or_else(NumVal::top);
                let iv = base.iv.clamp(lo.iv, hi.iv);
                let mut out = NumVal {
                    iv,
                    // f64::clamp(NaN, ..) is NaN — the clamp does not launder it.
                    maybe_nan: base.maybe_nan || lo.maybe_nan || hi.maybe_nan,
                    chain: base.chain,
                };
                out.push(format!("clamp@{line} → [{}, {}]", iv.lo, iv.hi));
                AbsVal::Num(out)
            }
            ("min", 1) | ("max", 1) => {
                let (a, b) = match (rnum, vals[0].as_num()) {
                    (Some(a), Some(b)) => (a, b.clone()),
                    _ => return AbsVal::Opaque,
                };
                let mut iv = if name == "min" {
                    a.iv.min(b.iv)
                } else {
                    a.iv.max(b.iv)
                };
                // f64::min/max return the *other* operand when one is NaN,
                // so a clean operand both clears the flag and re-admits its
                // own range into the result.
                if a.maybe_nan {
                    iv = iv.join(b.iv);
                }
                if b.maybe_nan {
                    iv = iv.join(a.iv);
                }
                AbsVal::Num(NumVal {
                    iv,
                    maybe_nan: a.maybe_nan && b.maybe_nan,
                    chain: merge_chain(&a.chain, &b.chain),
                })
            }
            ("abs", 0) => num_map(rnum, |n| (n.iv.abs(), n.maybe_nan, None)),
            ("sqrt", 0) => num_map(rnum, |n| {
                let may_neg = n.iv.lo < 0.0;
                (
                    n.iv.sqrt(),
                    n.maybe_nan || may_neg,
                    may_neg.then(|| "sqrt of a possibly-negative value".to_string()),
                )
            }),
            ("asin", 0) | ("acos", 0) => num_map(rnum, |n| {
                let out_dom = n.iv.lo < -1.0 || n.iv.hi > 1.0;
                let half_pi = std::f64::consts::FRAC_PI_2;
                let iv = if name == "asin" {
                    Interval::bounded_map(-half_pi, half_pi)
                } else {
                    Interval::bounded_map(0.0, std::f64::consts::PI)
                };
                (
                    iv,
                    n.maybe_nan || out_dom,
                    out_dom.then(|| format!("{name} outside [-1, 1]")),
                )
            }),
            ("atan", 0) => num_map(rnum, |n| {
                let half_pi = std::f64::consts::FRAC_PI_2;
                (Interval::bounded_map(-half_pi, half_pi), n.maybe_nan, None)
            }),
            ("powi", 1) => {
                let (a, b) = match (rnum, vals[0].as_num()) {
                    (Some(a), Some(b)) => (a, b.clone()),
                    _ => return AbsVal::Opaque,
                };
                let k = b.iv.lo;
                let iv = if b.iv.lo.to_bits() == b.iv.hi.to_bits()
                    && k.fract().to_bits() << 1 == 0
                    && (0.0..=6.0).contains(&k)
                {
                    let mut iv = Interval::point(1.0);
                    let mut i: i32 = 0;
                    while f64::from(i) < k {
                        iv = iv.mul(a.iv);
                        i += 1;
                    }
                    iv
                } else {
                    TOP
                };
                AbsVal::Num(NumVal {
                    iv,
                    maybe_nan: a.maybe_nan,
                    chain: a.chain,
                })
            }
            ("powf", 1) => num_map(rnum, |n| {
                let may_neg = n.iv.lo < 0.0;
                (
                    TOP,
                    n.maybe_nan || may_neg,
                    may_neg.then(|| "powf with a possibly-negative base".to_string()),
                )
            }),
            ("floor", 0) | ("ceil", 0) | ("round", 0) | ("trunc", 0) => num_map(rnum, |n| {
                (n.iv.add(Interval::new(-1.0, 1.0)), n.maybe_nan, None)
            }),
            ("signum", 0) => num_map(rnum, |n| (Interval::new(-1.0, 1.0), n.maybe_nan, None)),
            ("recip", 0) => num_map(rnum, |n| {
                let zero = n.iv.contains(0.0);
                (
                    Interval::point(1.0).div(n.iv),
                    n.maybe_nan,
                    zero.then(|| "recip of a zero-straddling value".to_string()),
                )
            }),
            ("to_radians", 0) => scale_map(rnum, std::f64::consts::PI / 180.0),
            ("to_degrees", 0) | ("degrees", 0) => scale_map(rnum, 180.0 / std::f64::consts::PI),
            ("mph", 0) => scale_map(rnum, 1.0 / MPH_TO_MPS),
            ("mps" | "mps2" | "radians" | "secs" | "raw" | "meters", 0) => match rnum {
                Some(n) => AbsVal::Num(n),
                None => AbsVal::Opaque,
            },
            _ => {
                // User-defined method: unique by name, and an inherent
                // method (`self` receiver) somewhere in the program.
                if let Some(defs) = self.fn_by_name.get(name) {
                    if defs.len() == 1 {
                        let (fi, gi) = defs[0];
                        let g = &self.files[fi].ir.fns[gi];
                        if g.impl_type.is_some() && g.params.first().is_some_and(|p| p == "self") {
                            let mut argvals = Vec::with_capacity(vals.len() + 1);
                            argvals.push(recv);
                            argvals.extend(vals);
                            return self.call_fn(fi, gi, argvals, ctx);
                        }
                    }
                }
                AbsVal::Opaque
            }
        }
    }

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        tail: Option<&Expr>,
        env: &mut Env,
        ctx: &Ctx,
    ) -> AbsVal {
        for s in stmts {
            match s {
                Stmt::Assign {
                    dst, expr, weak, ..
                } => {
                    let v = self.eval(expr, env, ctx);
                    let v = if *weak {
                        match env.get(dst) {
                            Some(old) => AbsVal::join(old, &v),
                            None => v,
                        }
                    } else {
                        v
                    };
                    env.insert(dst.clone(), v);
                }
                Stmt::Eval { expr, .. } => {
                    let _ = self.eval(expr, env, ctx);
                }
                Stmt::Loop { body, .. } => {
                    self.exec_loop(body, env, ctx);
                }
            }
        }
        match tail {
            Some(t) => self.eval(t, env, ctx),
            None => AbsVal::Opaque,
        }
    }

    /// Runs a loop body to an environment fixpoint with widening, then one
    /// final unmuted pass at the fixpoint so observations see stable values.
    fn exec_loop(&mut self, body: &Expr, env: &mut Env, ctx: &Ctx) {
        let mut prev = env.clone();
        self.muted += 1;
        for _ in 0..MAX_LOOP_ITERS {
            let mut e = prev.clone();
            let _ = self.eval(body, &mut e, ctx);
            let joined = join_env(prev.clone(), e);
            let widened = widen_env(&prev, joined);
            if env_same(&widened, &prev) {
                break;
            }
            prev = widened;
        }
        self.muted -= 1;
        let mut e = prev.clone();
        let _ = self.eval(body, &mut e, ctx);
        *env = prev;
    }

    /// Refines `env` under `cond == positive`. Positive ordered comparisons
    /// additionally prove the refined operand is not NaN.
    fn refine(&mut self, cond: &Expr, positive: bool, env: &mut Env, ctx: &Ctx) {
        match cond {
            Expr::Unary(UnOp::Not, inner) => self.refine(inner, !positive, env, ctx),
            Expr::Bin(BinOp::And, a, b) if positive => {
                self.refine(a, true, env, ctx);
                self.refine(b, true, env, ctx);
            }
            Expr::Bin(BinOp::Or, a, b) if !positive => {
                self.refine(a, false, env, ctx);
                self.refine(b, false, env, ctx);
            }
            Expr::Bin(op, lhs, rhs) => {
                let cmp = match op {
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => *op,
                    _ => return,
                };
                self.refine_cmp(cmp, lhs, rhs, positive, env, ctx);
                self.refine_cmp(flip(cmp), rhs, lhs, positive, env, ctx);
            }
            _ => {}
        }
    }

    /// Refines the place `lhs` against the value of `rhs` under
    /// `lhs <op> rhs == positive`.
    fn refine_cmp(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        positive: bool,
        env: &mut Env,
        ctx: &Ctx,
    ) {
        let Some(place) = lhs.as_place() else { return };
        if place.contains("::") {
            return; // consts are not refinable places
        }
        let bound = match self.eval(rhs, env, ctx) {
            AbsVal::Num(n) => n,
            _ => return,
        };
        let op = if positive { op } else { negate(op) };
        // lhs <op> rhs holds for the *actual* rhs, which lies in bound.iv:
        // upper-bounding ops use the largest possible rhs, lower-bounding
        // ops the smallest — the sound direction either way.
        let half = match op {
            BinOp::Lt => Interval::new(f64::NEG_INFINITY, next_down(bound.iv.hi)),
            BinOp::Le => Interval::new(f64::NEG_INFINITY, bound.iv.hi),
            BinOp::Gt => Interval::new(next_up(bound.iv.lo), f64::INFINITY),
            BinOp::Ge => Interval::new(bound.iv.lo, f64::INFINITY),
            BinOp::Eq => bound.iv,
            _ => return, // Ne carries no interval information
        };
        let cur = match env.get(&place) {
            Some(AbsVal::Num(n)) => n.clone(),
            Some(_) => return,
            None => NumVal::top(),
        };
        let iv = cur.iv.meet(half).unwrap_or(cur.iv);
        // A true ordered comparison (or a true float equality) is only
        // possible when the operand is an ordinary number.
        let maybe_nan = if positive { false } else { cur.maybe_nan };
        env.insert(
            place,
            AbsVal::Num(NumVal {
                iv,
                maybe_nan,
                chain: cur.chain,
            }),
        );
    }
}

/// Mirrors a comparison so the place can sit on either side.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// The comparison that holds when `op` is false (NaN cases aside — the
/// caller keeps `maybe_nan` on negated refinements for exactly that).
fn negate(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

/// Arithmetic transfer function for a binary operation on abstract values.
fn eval_bin(op: BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    let (x, y) = match (a.as_num(), b.as_num()) {
        (Some(x), Some(y)) => (x, y),
        _ => return AbsVal::Opaque,
    };
    let mut fresh_nan = false;
    let iv = match op {
        BinOp::Add => x.iv.add(y.iv),
        BinOp::Sub => x.iv.sub(y.iv),
        BinOp::Mul => x.iv.mul(y.iv),
        BinOp::Div => {
            if (x.iv.contains(0.0) && y.iv.contains(0.0))
                || (!x.iv.is_bounded() && !y.iv.is_bounded())
            {
                fresh_nan = true;
            }
            x.iv.div(y.iv)
        }
        BinOp::Rem => {
            if y.iv.contains(0.0) {
                fresh_nan = true;
            }
            TOP
        }
        // Comparisons and boolean connectives only matter as guards, where
        // `refine` interprets them structurally.
        _ => return AbsVal::Opaque,
    };
    let mut chain = merge_chain(&x.chain, &y.chain);
    if fresh_nan && chain.len() < MAX_CHAIN {
        let what = match op {
            BinOp::Div => "division with 0/0 or unbounded operands",
            _ => "remainder with a zero-straddling divisor",
        };
        chain.push(what.to_string());
    }
    AbsVal::Num(NumVal {
        iv,
        maybe_nan: x.maybe_nan || y.maybe_nan || fresh_nan,
        chain,
    })
}

/// Applies a numeric transfer function, with an optional provenance note.
fn num_map(
    recv: Option<NumVal>,
    f: impl FnOnce(&NumVal) -> (Interval, bool, Option<String>),
) -> AbsVal {
    match recv {
        Some(n) => {
            let (iv, nan, note) = f(&n);
            let mut out = NumVal {
                iv,
                maybe_nan: nan,
                chain: n.chain,
            };
            if let Some(note) = note {
                out.push(note);
            }
            AbsVal::Num(out)
        }
        None => AbsVal::Opaque,
    }
}

/// Multiplies a numeric receiver by a constant (unit conversions).
fn scale_map(recv: Option<NumVal>, s: f64) -> AbsVal {
    num_map(recv, |n| (n.iv.mul(Interval::point(s)), n.maybe_nan, None))
}

/// Physical limits R9 checks against, resolved from the canonical const
/// table with fixture-friendly fallbacks.
struct PhysLimits {
    accel_min: f64,
    accel_max: f64,
    steer_rad: f64,
}

/// Runs the semantic layer over a set of prepared files and returns the
/// R9/R10/R11 findings, deterministically ordered.
pub fn semantic_rules(files: &[SemFile]) -> Vec<Diagnostic> {
    let mut a = Analyzer::new(files);
    a.run();

    let phys = PhysLimits {
        accel_min: a
            .const_point("PHYS_BRAKE_MIN_MPS2")
            .map_or(FALLBACK_ACCEL_MIN, |(v, _, _)| v),
        accel_max: a
            .const_point("PHYS_ACCEL_MAX_MPS2")
            .map_or(FALLBACK_ACCEL_MAX, |(v, _, _)| v),
        steer_rad: a
            .const_point("PHYS_STEER_MAX_DEG")
            .map_or(FALLBACK_STEER_DEG, |(v, _, _)| v)
            .to_radians(),
    };

    let mut diags = Vec::new();

    // R9 + the NaN half of R11: deduped sink observations.
    let mut sinks: BTreeMap<(usize, usize), AbsVal> = BTreeMap::new();
    for s in std::mem::take(&mut a.sinks) {
        sinks
            .entry((s.file, s.line))
            .and_modify(|v| *v = AbsVal::join(v, &s.val))
            .or_insert(s.val);
    }
    for (&(fi, line), val) in &sinks {
        r9_check(files, fi, line, val, &phys, &mut diags);
    }

    // R11: clamp observations.
    let mut clamps: BTreeMap<(usize, usize), ClampObs> = BTreeMap::new();
    for c in std::mem::take(&mut a.clamps) {
        clamps
            .entry((c.file, c.line))
            .and_modify(|prev| {
                prev.recv = AbsVal::join(&prev.recv, &c.recv);
                prev.lo = AbsVal::join(&prev.lo, &c.lo);
                prev.hi = AbsVal::join(&prev.hi, &c.hi);
            })
            .or_insert(c);
    }
    for (&(fi, line), c) in &clamps {
        r11_clamp_check(files, fi, line, c, &mut diags);
    }

    // R10: cross-constant consistency.
    r10_checks(&mut a, files, &mut diags);

    diags.sort_by(|x, y| {
        (x.file.as_str(), x.line, x.rule.id()).cmp(&(y.file.as_str(), y.line, y.rule.id()))
    });
    diags
}

fn snippet_at(files: &[SemFile], fi: usize, line: usize) -> String {
    files[fi]
        .src
        .lines
        .get(line.saturating_sub(1))
        .map(|l| l.raw.trim().to_string())
        .unwrap_or_default()
}

fn sem_diag(
    rule: Rule,
    severity: Severity,
    files: &[SemFile],
    fi: usize,
    line: usize,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity,
        file: files[fi].rel.clone(),
        line,
        snippet: snippet_at(files, fi, line),
        message,
    }
}

/// R9 check for one numeric component of a sink value.
fn r9_num(
    files: &[SemFile],
    fi: usize,
    line: usize,
    n: &NumVal,
    what: &str,
    (lo, hi): (f64, f64),
    diags: &mut Vec<Diagnostic>,
) {
    if n.maybe_nan {
        diags.push(sem_diag(
            Rule::ClampHygiene,
            Severity::Error,
            files,
            fi,
            line,
            format!(
                "{what} flowing into the actuator encoder may be NaN: abstract \
                 value {} — NaN passes every clamp, so guard the producing \
                 operation (positive ordered comparison, or min/max with a \
                 clean operand)",
                n.describe()
            ),
        ));
        return;
    }
    if !n.iv.within(lo, hi) {
        diags.push(sem_diag(
            Rule::EnvelopeSoundness,
            Severity::Error,
            files,
            fi,
            line,
            format!(
                "cannot prove {what} stays inside the physical limits \
                 [{lo}, {hi}] at the actuator encoder: abstract value {}",
                n.describe()
            ),
        ));
    }
}

fn r9_check(
    files: &[SemFile],
    fi: usize,
    line: usize,
    val: &AbsVal,
    phys: &PhysLimits,
    diags: &mut Vec<Diagnostic>,
) {
    let untracked = |field: &str| {
        format!(
            "cannot prove `{field}` is bounded at the actuator encoder: the \
             field's value is not numerically tracked on this path"
        )
    };
    match val {
        AbsVal::Num(n) => r9_num(
            files,
            fi,
            line,
            n,
            "value",
            (phys.accel_min, phys.accel_max),
            diags,
        ),
        AbsVal::Struct(m) => {
            match m.get("accel").and_then(AbsVal::as_num) {
                Some(n) => r9_num(
                    files,
                    fi,
                    line,
                    n,
                    "`accel`",
                    (phys.accel_min, phys.accel_max),
                    diags,
                ),
                None => diags.push(sem_diag(
                    Rule::EnvelopeSoundness,
                    Severity::Error,
                    files,
                    fi,
                    line,
                    untracked("accel"),
                )),
            }
            match m.get("steer").and_then(AbsVal::as_num) {
                Some(n) => r9_num(
                    files,
                    fi,
                    line,
                    n,
                    "`steer` (radians)",
                    (-phys.steer_rad, phys.steer_rad),
                    diags,
                ),
                None => diags.push(sem_diag(
                    Rule::EnvelopeSoundness,
                    Severity::Error,
                    files,
                    fi,
                    line,
                    untracked("steer"),
                )),
            }
        }
        AbsVal::Opaque => diags.push(sem_diag(
            Rule::EnvelopeSoundness,
            Severity::Error,
            files,
            fi,
            line,
            "cannot prove the encoded command is bounded: the value reaching \
             the actuator encoder is not numerically tracked (route it \
             through `safety::envelope_clamp` or an equivalent literal clamp)"
                .to_string(),
        )),
    }
}

fn r11_clamp_check(
    files: &[SemFile],
    fi: usize,
    line: usize,
    c: &ClampObs,
    diags: &mut Vec<Diagnostic>,
) {
    let (Some(lo), Some(hi)) = (c.lo.as_num(), c.hi.as_num()) else {
        return;
    };
    if lo.iv.lo > hi.iv.hi {
        diags.push(sem_diag(
            Rule::ClampHygiene,
            Severity::Error,
            files,
            fi,
            line,
            format!(
                "inverted clamp bounds: lower bound {} exceeds upper bound {} \
                 — `f64::clamp` panics at runtime on this pair",
                lo.describe(),
                hi.describe()
            ),
        ));
        return;
    }
    if let Some(r) = c.recv.as_num() {
        if !r.iv.is_top() && r.iv.is_bounded() && r.iv.lo >= lo.iv.hi && r.iv.hi <= hi.iv.lo {
            diags.push(sem_diag(
                Rule::ClampHygiene,
                Severity::Warning,
                files,
                fi,
                line,
                format!(
                    "dead clamp: the receiver is already proven inside \
                     [{}, {}] (abstract value {}), so this clamp can never \
                     act — tighten the bounds or delete it so readers are not \
                     misled about where enforcement happens",
                    lo.iv.hi,
                    hi.iv.lo,
                    r.describe()
                ),
            ));
        }
    }
}

/// The R10 cross-constant checks. Each check names the constants it needs
/// and is silently skipped when any is absent or non-point, so the rule
/// composes with fixtures that define only a subset.
fn r10_checks(a: &mut Analyzer<'_>, files: &[SemFile], diags: &mut Vec<Diagnostic>) {
    type Pred = fn(&[f64]) -> bool;
    let checks: &[(&str, &[&str], Pred, &str)] = &[
        (
            "GATE_MAX_SPEED_JUMP_MPS",
            &["SW_ACCEL_MAX_MPS2", "TICK_SECONDS"],
            |v| v[0] > v[1] * v[2],
            "the plausibility gate's per-tick speed allowance must exceed the \
             speed change the software envelope lets the controller command \
             in one tick (SW_ACCEL_MAX_MPS2 × TICK_SECONDS), else legitimate \
             control authority is rejected as implausible",
        ),
        (
            "GATE_MAX_SPEED_JUMP_MPS",
            &["SW_BRAKE_MIN_MPS2", "TICK_SECONDS"],
            |v| v[0] > -v[1] * v[2],
            "the plausibility gate's per-tick speed allowance must exceed the \
             per-tick speed change of a maximal envelope brake \
             (−SW_BRAKE_MIN_MPS2 × TICK_SECONDS)",
        ),
        (
            "STALE_AFTER_TICKS",
            &["DEGRADE_AFTER_TICKS"],
            |v| v[0] < v[1],
            "staleness must be detected before the degradation ladder \
             escalates (STALE_AFTER_TICKS < DEGRADE_AFTER_TICKS), else the \
             ladder escalates on data it never classified as stale",
        ),
        (
            "DEGRADE_AFTER_TICKS",
            &["FAILSAFE_AFTER_TICKS"],
            |v| v[0] < v[1],
            "the degradation ladder must pass through the degraded rungs \
             before fail-safe (DEGRADE_AFTER_TICKS < FAILSAFE_AFTER_TICKS)",
        ),
        (
            "GATE_REACQUIRE_AFTER",
            &["DEGRADE_AFTER_TICKS"],
            |v| v[0] < v[1],
            "a bound-violating stream must re-anchor before the degradation \
             ladder escalates (GATE_REACQUIRE_AFTER < DEGRADE_AFTER_TICKS), \
             else a legitimate discontinuity degrades the stack",
        ),
        (
            "STRICT_ACCEL_MAX_MPS2",
            &["SW_ACCEL_MAX_MPS2", "PHYS_ACCEL_MAX_MPS2"],
            |v| v[0] <= v[1] && v[1] <= v[2],
            "acceleration envelopes must nest: strict ≤ software ≤ physical",
        ),
        (
            "STRICT_BRAKE_MIN_MPS2",
            &["SW_BRAKE_MIN_MPS2", "PHYS_BRAKE_MIN_MPS2"],
            |v| v[0] >= v[1] && v[1] >= v[2],
            "braking envelopes must nest: strict ≥ software ≥ physical (all \
             negative)",
        ),
        (
            "STRICT_STEER_MAX_DEG",
            &["SW_STEER_MAX_DEG", "PHYS_STEER_MAX_DEG"],
            |v| v[0] <= v[1] && v[1] <= v[2],
            "steering envelopes must nest: strict ≤ software ≤ physical",
        ),
        (
            "STRICT_OVERSPEED_FACTOR",
            &["SW_OVERSPEED_FACTOR"],
            |v| 1.0 < v[0] && v[0] <= v[1],
            "overspeed factors must satisfy 1 < strict ≤ software — a factor \
             at or below 1 rejects the cruise set-point itself",
        ),
        (
            "FAILSAFE_BRAKE_MPS2",
            &["SW_BRAKE_MIN_MPS2", "GENTLE_BRAKE_MPS2"],
            |v| v[1] <= v[0] && v[0] <= v[2] && v[2] < 0.0,
            "controlled-stop decelerations must order SW_BRAKE_MIN ≤ \
             FAILSAFE_BRAKE ≤ GENTLE_BRAKE < 0, so the stop itself never \
             violates the envelope it is enforcing",
        ),
        (
            "IDS_MISS_AFTER",
            &["IDS_TIMING_THRESHOLD", "DEGRADE_AFTER_TICKS"],
            |v| v[0] + v[1] < v[2],
            "the CAN IDS must be able to raise a timing alert before the \
             degradation ladder escalates (IDS_MISS_AFTER + \
             IDS_TIMING_THRESHOLD < DEGRADE_AFTER_TICKS)",
        ),
    ];

    for (anchor, others, pred, msg) in checks {
        let Some((v0, fi, line)) = a.const_point(anchor) else {
            continue;
        };
        let mut vals = vec![v0];
        let mut resolved = true;
        for name in *others {
            match a.const_point(name) {
                Some((v, _, _)) => vals.push(v),
                None => {
                    resolved = false;
                    break;
                }
            }
        }
        if resolved && !pred(&vals) {
            diags.push(sem_diag(
                Rule::ThresholdConsistency,
                Severity::Error,
                files,
                fi,
                line,
                format!("{anchor} = {v0} is inconsistent: {msg}"),
            ));
        }
    }

    // Config constructors must reproduce the canonical constants exactly.
    let struct_checks: &[(&str, &[(&str, &str)])] = &[
        (
            "GateConfig::enforcing",
            &[
                ("innovation_sigma", "GATE_INNOVATION_SIGMA"),
                ("max_speed_jump", "GATE_MAX_SPEED_JUMP_MPS"),
                ("max_dist_jump", "GATE_MAX_DIST_JUMP_M"),
                ("max_lead_speed_jump", "GATE_MAX_LEAD_SPEED_JUMP_MPS"),
                ("max_offset_jump", "GATE_MAX_OFFSET_JUMP_M"),
                ("stuck_after", "GATE_STUCK_AFTER"),
                ("reacquire_after", "GATE_REACQUIRE_AFTER"),
                ("min_moving_speed", "GATE_MIN_MOVING_SPEED_MPS"),
                ("elapsed_cap", "GATE_ELAPSED_CAP"),
            ],
        ),
        (
            "IdsConfig::default",
            &[
                ("miss_after", "IDS_MISS_AFTER"),
                ("timing_threshold", "IDS_TIMING_THRESHOLD"),
                ("counter_threshold", "IDS_COUNTER_THRESHOLD"),
                ("checksum_threshold", "IDS_CHECKSUM_THRESHOLD"),
            ],
        ),
    ];
    for (qual, fields) in struct_checks {
        let Some(defs) = a.fn_by_qual.get(*qual).cloned() else {
            continue;
        };
        if defs.len() != 1 {
            continue;
        }
        let (fi, gi) = defs[0];
        let line = a.files[fi].ir.fns[gi].line;
        let AbsVal::Struct(m) = a.summary(fi, gi) else {
            continue;
        };
        for (field, cname) in *fields {
            let Some((want, _, _)) = a.const_point(cname) else {
                continue;
            };
            let Some(got) = m.get(*field).and_then(AbsVal::as_num) else {
                continue;
            };
            if got.iv.lo.to_bits() != got.iv.hi.to_bits() || got.iv.lo.to_bits() != want.to_bits()
            {
                diags.push(sem_diag(
                    Rule::ThresholdConsistency,
                    Severity::Error,
                    files,
                    fi,
                    line,
                    format!(
                        "{qual} sets `{field}` to {} but the canonical \
                         constant {cname} is {want} — the runtime config has \
                         drifted from the declared limit",
                        got.describe()
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    /// Tokenizes `src` as a fixture file with R9 and R11 in scope and runs
    /// the semantic layer over it alone.
    fn run(src: &str) -> Vec<Diagnostic> {
        let sf = tokenize(src);
        semantic_rules(&[SemFile::new("fixture.rs".to_string(), sf, true, true)])
    }

    fn rule_ids(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn clamped_sink_is_provable() {
        let diags = run(
            "fn drive(enc: f64, x: f64) {\n\
                 let v = x.clamp(-4.0, 2.4);\n\
                 enc.encode_into(&v);\n\
             }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn raw_parameter_at_sink_is_unprovable() {
        let diags = run(
            "fn drive(enc: f64, x: f64) {\n\
                 enc.encode_into(&x);\n\
             }\n",
        );
        assert_eq!(rule_ids(&diags), ["R9"], "{diags:?}");
        assert!(diags[0].message.contains("cannot prove"), "{diags:?}");
    }

    #[test]
    fn guarded_division_is_clean() {
        let diags = run(
            "fn drive(enc: f64, a: f64, gap_err: f64) {\n\
                 let v = if gap_err > 0.0 {\n\
                     (a.clamp(0.0, 1.0) / (2.0 * gap_err)).clamp(-4.0, 2.0)\n\
                 } else {\n\
                     0.0\n\
                 };\n\
                 enc.encode_into(&v);\n\
             }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unguarded_division_may_be_nan_at_sink() {
        let diags = run(
            "fn drive(enc: f64, a: f64, gap_err: f64) {\n\
                 let v = (a.clamp(0.0, 1.0) / (2.0 * gap_err)).clamp(-4.0, 2.0);\n\
                 enc.encode_into(&v);\n\
             }\n",
        );
        assert_eq!(rule_ids(&diags), ["R11"], "{diags:?}");
        assert!(diags[0].message.contains("NaN"), "{diags:?}");
    }

    #[test]
    fn min_max_launder_nan() {
        let diags = run(
            "fn drive(enc: f64, x: f64, y: f64) {\n\
                 let v = (x / y).min(2.0).max(-4.0);\n\
                 enc.encode_into(&v);\n\
             }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_clamp_is_flagged() {
        let diags = run(
            "fn narrow(x: f64) -> f64 {\n\
                 let v = x.clamp(0.0, 1.0);\n\
                 v.clamp(-5.0, 5.0)\n\
             }\n",
        );
        assert_eq!(rule_ids(&diags), ["R11"], "{diags:?}");
        assert!(matches!(diags[0].severity, Severity::Warning), "{diags:?}");
        assert!(diags[0].message.contains("dead clamp"), "{diags:?}");
    }

    #[test]
    fn inverted_clamp_is_flagged() {
        let diags = run(
            "fn bad(x: f64) -> f64 {\n\
                 x.clamp(2.0, -2.0)\n\
             }\n",
        );
        assert_eq!(rule_ids(&diags), ["R11"], "{diags:?}");
        assert!(matches!(diags[0].severity, Severity::Error), "{diags:?}");
        assert!(diags[0].message.contains("inverted"), "{diags:?}");
    }

    #[test]
    fn loop_counter_widens_and_fails_r9() {
        let diags = run(
            "fn drive(enc: f64) {\n\
                 let mut v = 0.0;\n\
                 let mut i = 0.0;\n\
                 while i < 10.0 {\n\
                     v = v + 1.0;\n\
                     i = i + 1.0;\n\
                 }\n\
                 enc.encode_into(&v);\n\
             }\n",
        );
        assert_eq!(rule_ids(&diags), ["R9"], "{diags:?}");
        assert!(diags[0].message.contains("widened"), "{diags:?}");
    }

    #[test]
    fn inconsistent_gate_threshold_fails_r10() {
        let diags = run(
            "const GATE_MAX_SPEED_JUMP_MPS: f64 = 0.001;\n\
             const SW_ACCEL_MAX_MPS2: f64 = 2.4;\n\
             const TICK_SECONDS: f64 = 0.01;\n",
        );
        assert_eq!(rule_ids(&diags), ["R10"], "{diags:?}");
        assert!(
            diags[0].message.contains("GATE_MAX_SPEED_JUMP_MPS"),
            "{diags:?}"
        );
    }

    #[test]
    fn config_constructor_drift_fails_r10() {
        let diags = run(
            "const GATE_MAX_SPEED_JUMP_MPS: f64 = 1.0;\n\
             impl GateConfig {\n\
                 fn enforcing() -> Self {\n\
                     Self { max_speed_jump: 2.0 }\n\
                 }\n\
             }\n",
        );
        assert_eq!(rule_ids(&diags), ["R10"], "{diags:?}");
        assert!(diags[0].message.contains("drifted"), "{diags:?}");
    }

    #[test]
    fn envelope_clamp_proves_struct_sink() {
        // Mirror of the production shape: a control struct routed through a
        // free-function envelope clamp before the encoder.
        let diags = run(
            "const SW_ACCEL_MAX_MPS2: f64 = 2.4;\n\
             const SW_BRAKE_MIN_MPS2: f64 = -4.0;\n\
             const SW_STEER_MAX_DEG: f64 = 0.5;\n\
             fn envelope_clamp(c: CarControl) -> CarControl {\n\
                 CarControl {\n\
                     accel: c.accel.clamp(SW_BRAKE_MIN_MPS2, SW_ACCEL_MAX_MPS2),\n\
                     steer: c.steer.clamp(-SW_STEER_MAX_DEG.to_radians(), SW_STEER_MAX_DEG.to_radians()),\n\
                 }\n\
             }\n\
             fn drive(enc: f64, accel: f64, steer: f64) {\n\
                 let control = CarControl { accel: accel, steer: steer };\n\
                 let control = envelope_clamp(control);\n\
                 enc.encode_into(&control);\n\
             }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
