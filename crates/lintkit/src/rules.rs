//! The simlint rules: named invariants checked over lexed Rust source and
//! parsed `Cargo.toml` manifests.
//!
//! Every rule is suppressible at a single site with
//! `// simlint: allow(<rule>, reason = "…")` on the offending line or the
//! line directly above it; the reason is mandatory so every escape hatch is
//! self-documenting. The `lib-unwrap` rule additionally consults a
//! checked-in baseline (see [`crate::baseline`]) that grandfathers
//! pre-existing sites while new ones are blocked.

use crate::items::index_items;
use crate::lexer::{lex_marked, Token, TokenKind};
use crate::shardcfg::ShardConfig;
use std::collections::BTreeMap;

/// A single finding, pointing at a file, line, and named rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The rule that fired (one of [`RULES`] names).
    pub rule: &'static str,
    /// Human-readable explanation with a suggested fix.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Descriptor for one named rule (for `--list-rules`).
pub struct RuleInfo {
    /// The rule's name, as used in allow-annotations and the baseline.
    pub name: &'static str,
    /// One-line summary of what the rule enforces and why.
    pub summary: &'static str,
}

/// Every rule simlint knows about.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-order",
        summary: "no HashMap/HashSet in simulation-observable crate libraries \
                  (hasher randomization leaks into iteration order; use BTreeMap/BTreeSet)",
    },
    RuleInfo {
        name: "wall-clock",
        summary: "no std::time::Instant/SystemTime/thread::sleep outside testkit::bench \
                  (simulated time only; wall-clock reads break seed reproducibility)",
    },
    RuleInfo {
        name: "lib-unwrap",
        summary: "no .unwrap()/.expect( in non-test library code of sim datapath crates \
                  (baseline-grandfathered; return errors instead of panicking)",
    },
    RuleInfo {
        name: "lossy-time-cast",
        summary: "no bare `as u64`/`as f64` in simkit time/fluid/engine arithmetic \
                  (use the checked Time conversion helpers)",
    },
    RuleInfo {
        name: "no-extern-dep",
        summary: "every Cargo.toml dependency must be an in-repo path (or workspace) \
                  dependency; versions, git, and registry sources are forbidden",
    },
    RuleInfo {
        name: "span-balance",
        summary: "a statement-position span_open(…) whose SpanId is discarded must be \
                  covered by span_close calls in the same function body \
                  (an unclosed span never retires to the sink and leaks)",
    },
    RuleInfo {
        name: "shared-mutable",
        summary: "no shared-mutable-state types (Mutex/RwLock/Atomic*/Cell/RefCell/`static mut`) \
                  in shard-payload-path crates, and no thread::spawn/scope outside simkit::shard \
                  (shard state is single-owner by construction; ad-hoc sharing breaks the \
                  determinism argument)",
    },
    RuleInfo {
        name: "cross-shard-access",
        summary: "core code may not call shard-owned storage methods except from audited \
                  store-side/barrier functions (configured in crates/lintkit/shard_owned.txt); \
                  cross-shard effects must travel as Scheduler::send messages or barrier operations",
    },
    RuleInfo {
        name: "float-fold-order",
        summary: "float accumulation (`+=`/`-=`/.sum()) fed from a non-slot-ordered iterator \
                  in the fluid solver; fp addition is non-associative, so folds must walk a \
                  fixed-order structure (class_bytes/class_weight/capped) to keep results \
                  seed-pure",
    },
    RuleInfo {
        name: "test-only-pub",
        summary: "a `pub fn`/`pub const`/`pub static` in a sim-crate library that no non-test \
                  code outside its own file names (tests/ trees and #[cfg(test)] code do not \
                  count; benches, examples, bins and perfbench do): delete it, or drop `pub` \
                  when its own file uses it (baseline-grandfathered)",
    },
    RuleInfo {
        name: "stale-allow",
        summary: "a `// simlint: allow(…)` annotation that suppresses zero findings; \
                  delete it (stale escape hatches hide real regressions when code moves)",
    },
    RuleInfo {
        name: "bad-allow",
        summary: "a `// simlint:` annotation that does not parse as \
                  allow(<rule>, reason = \"…\") with a known rule and non-empty reason",
    },
    RuleInfo {
        name: "lex-error",
        summary: "the file could not be tokenized (unterminated string or comment)",
    },
];

/// Crates whose `src/` trees are simulation-observable: nondeterministic
/// iteration order there can change reports byte-for-byte.
pub const SIM_CRATES: &[&str] =
    &["simkit", "rocenet", "blockstore", "core", "hwmodel", "tracekit", "datakit"];

/// Files where `lossy-time-cast` applies: the time arithmetic core.
pub const TIME_CAST_FILES: &[&str] = &[
    "crates/simkit/src/time.rs",
    "crates/simkit/src/fluid.rs",
    "crates/simkit/src/engine.rs",
];

/// The single file allowed to read the wall clock: the bench runner, which
/// measures the host, not the simulation.
pub const WALL_CLOCK_EXEMPT: &[&str] = &["crates/testkit/src/bench.rs"];

/// The shard engine itself (and its sanitizer): the one place that may
/// own threads, barriers, mutexes, and atomics — it *implements* the
/// discipline `shared-mutable` enforces on everything above it.
pub const SHARD_ENGINE_FILES: &[&str] = &[
    "crates/simkit/src/shard.rs",
    "crates/simkit/src/sanitizer.rs",
];

/// Files where `float-fold-order` applies: the fluid solver, whose float
/// accumulation order is part of the determinism contract.
pub const FLOAT_FOLD_FILES: &[&str] = &["crates/simkit/src/fluid.rs"];

/// Iteration sources the fluid solver is allowed to fold floats over,
/// each with an order fixed by the flow set alone (plus literal `..`
/// ranges, handled separately): the per-class byte and uncapped-weight
/// arrays (class-indexed) and the capped side set (sorted by
/// `(cap / weight, slot)`). Anything else has no fixed fold order: a
/// map's values, a filtered scratch list, or the finish-tag heap, whose
/// storage order depends on the history of pushes and pops.
const SLOT_ORDERED_SOURCES: &[&str] = &["class_bytes", "class_weight", "capped"];

/// Shared-mutable-state type names forbidden in shard-payload-path
/// crates (`Atomic*` is matched by prefix).
const FORBIDDEN_SHARED: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "RefCell", "Cell", "UnsafeCell", "OnceCell",
    "OnceLock", "LazyCell", "LazyLock",
];

/// True when `name` names a shared-mutable-state type.
fn is_shared_type(name: &str) -> bool {
    FORBIDDEN_SHARED.contains(&name) || (name.starts_with("Atomic") && name.len() > "Atomic".len())
}

/// True when `rel` is non-test library code of a simulation-observable
/// crate (i.e. under `crates/<sim crate>/src/`).
pub fn is_sim_crate_lib(rel: &str) -> bool {
    SIM_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// A parsed allow-annotation: suppresses `rule` on the comment's line and
/// the line directly below it. `used` records whether it suppressed
/// anything — an allow that never fires is itself a `stale-allow`
/// violation.
#[derive(Debug, PartialEq, Eq)]
struct Allow {
    rule: String,
    line: u32,
    used: std::cell::Cell<bool>,
}

/// Extracts `simlint:` annotations from comment tokens. Malformed
/// annotations become `bad-allow` diagnostics so typos cannot silently
/// disable a rule.
fn collect_allows(rel: &str, tokens: &[Token<'_>], diags: &mut Vec<Diagnostic>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        // An annotation must start the comment body (`// simlint: …`);
        // prose that merely mentions the marker mid-sentence is not one.
        let body = t
            .text
            .trim_start_matches(['/', '*', '!'])
            .trim_start();
        let Some(rest) = body.strip_prefix("simlint:") else {
            continue;
        };
        let rest = rest.trim_start();
        match parse_allow(rest) {
            Some(rule) => allows.push(Allow {
                rule,
                line: t.line,
                used: std::cell::Cell::new(false),
            }),
            None => diags.push(Diagnostic {
                file: rel.to_string(),
                line: t.line,
                rule: "bad-allow",
                msg: "malformed annotation; expected \
                      `simlint: allow(<rule>, reason = \"…\")` with a known rule \
                      and a non-empty reason"
                    .to_string(),
            }),
        }
    }
    allows
}

/// Parses `allow(<rule>, reason = "…")`, returning the rule name.
fn parse_allow(s: &str) -> Option<String> {
    let s = s.strip_prefix("allow(")?;
    let close = s.rfind(')')?;
    let inner = &s[..close];
    let (rule, rest) = inner.split_once(',')?;
    let rule = rule.trim();
    if !RULES.iter().any(|r| r.name == rule) {
        return None;
    }
    let rest = rest.trim();
    let reason = rest.strip_prefix("reason")?.trim_start().strip_prefix('=')?;
    let reason = reason.trim().strip_prefix('"')?.strip_suffix('"')?;
    if reason.trim().is_empty() {
        return None;
    }
    Some(rule.to_string())
}

fn allowed(allows: &[Allow], rule: &str, line: u32) -> bool {
    let mut hit = false;
    for a in allows {
        if a.rule == rule && (a.line == line || a.line + 1 == line) {
            a.used.set(true);
            hit = true;
        }
    }
    hit
}

/// Lints one Rust source file with the built-in shard-domain config.
/// `rel` is the workspace-relative path with forward slashes; it
/// determines which rules apply.
pub fn lint_rust_file(rel: &str, src: &str) -> Vec<Diagnostic> {
    lint_rust_file_with(rel, src, &ShardConfig::builtin())
}

/// Lints one Rust source file against an explicit shard-domain config
/// (the workspace scan loads `crates/lintkit/shard_owned.txt`). The
/// cross-file `test-only-pub` rule needs the whole workspace, so only
/// the workspace scan runs it.
pub fn lint_rust_file_with(rel: &str, src: &str, shard_cfg: &ShardConfig) -> Vec<Diagnostic> {
    match lex_file(rel, src) {
        Ok(tokens) => lint_tokens(rel, &tokens, shard_cfg, &[]),
        Err(d) => vec![d],
    }
}

/// Lexes `src` with test regions marked, or reports a `lex-error`.
pub(crate) fn lex_file<'a>(rel: &str, src: &'a str) -> Result<Vec<Token<'a>>, Diagnostic> {
    lex_marked(src).map_err(|e| Diagnostic {
        file: rel.to_string(),
        line: e.line,
        rule: "lex-error",
        msg: e.msg,
    })
}

/// Lints one lexed file; `test_only` holds its `test-only-pub` findings
/// (line, message) from [`test_only_pub`], so allow-annotations suppress
/// them like any other rule's.
pub(crate) fn lint_tokens(
    rel: &str,
    tokens: &[Token<'_>],
    shard_cfg: &ShardConfig,
    test_only: &[(u32, String)],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let allows = collect_allows(rel, tokens, &mut diags);
    let push = |rule: &'static str, line: u32, msg: String, diags: &mut Vec<Diagnostic>| {
        if !allowed(&allows, rule, line) {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line,
                rule,
                msg,
            });
        }
    };

    let sim_lib = is_sim_crate_lib(rel);
    let clock_exempt = WALL_CLOCK_EXEMPT.contains(&rel);
    let time_cast = TIME_CAST_FILES.contains(&rel);

    // Code tokens only (comments carry no violations themselves).
    let code = code_tokens(tokens);

    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // hash-order: HashMap/HashSet identifiers in sim-crate libraries.
        if sim_lib && !t.in_test && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                "hash-order",
                t.line,
                format!(
                    "{} iteration order depends on per-process hasher randomization; \
                     use BTree{} (or annotate with a reason)",
                    t.text,
                    &t.text[4..]
                ),
                &mut diags,
            );
        }
        // wall-clock: Instant/SystemTime anywhere (tests included — wall
        // clock makes tests flaky), thread::sleep likewise.
        if !clock_exempt && (t.text == "Instant" || t.text == "SystemTime") {
            push(
                "wall-clock",
                t.line,
                format!(
                    "std::time::{} reads the host clock; simulations must use \
                     simkit::Time exclusively",
                    t.text
                ),
                &mut diags,
            );
        }
        if !clock_exempt
            && t.text == "sleep"
            && i >= 3
            && code[i - 1].text == ":"
            && code[i - 2].text == ":"
            && code[i - 3].text == "thread"
        {
            push(
                "wall-clock",
                t.line,
                "thread::sleep blocks on wall-clock time; advance simulated time instead"
                    .to_string(),
                &mut diags,
            );
        }
        // lib-unwrap: `.unwrap()` / `.expect(` in sim-crate library code.
        if sim_lib
            && !t.in_test
            && (t.text == "unwrap" || t.text == "expect")
            && i >= 1
            && code[i - 1].kind == TokenKind::Punct
            && code[i - 1].text == "."
            && code.get(i + 1).is_some_and(|n| n.text == "(")
        {
            push(
                "lib-unwrap",
                t.line,
                format!(
                    ".{}( panics the whole simulation; return a typed error \
                     (grandfathered sites live in lintkit/baseline.txt)",
                    t.text
                ),
                &mut diags,
            );
        }
        // lossy-time-cast: `as u64` / `as f64` in the time-arithmetic core.
        if time_cast
            && !t.in_test
            && t.text == "as"
            && code
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident && (n.text == "u64" || n.text == "f64"))
        {
            push(
                "lossy-time-cast",
                t.line,
                format!(
                    "bare `as {}` cast in time arithmetic silently truncates or loses \
                     precision; use the checked simkit::Time conversion helpers",
                    code[i + 1].text
                ),
                &mut diags,
            );
        }
    }

    // The shard-safety rules need item context (enclosing fn/impl, use
    // declarations); index once.
    let items = index_items(&code);
    let engine_file = SHARD_ENGINE_FILES.contains(&rel);

    // shared-mutable: shared-mutable-state types in shard-payload-path
    // crate libraries. Shard state is single-owner by construction — the
    // engine guarantees one worker per shard per window — so any
    // Mutex/Atomic/Cell there is either dead weight or, worse, a side
    // channel whose observed order depends on the thread schedule.
    if sim_lib && !engine_file {
        for (i, t) in code.iter().enumerate() {
            if t.in_test || t.kind != TokenKind::Ident || items.in_use_decl(i) {
                continue;
            }
            if t.text == "static" && code.get(i + 1).is_some_and(|n| n.text == "mut") {
                push(
                    "shared-mutable",
                    t.line,
                    "`static mut` is cross-shard shared mutable state; shard state must be \
                     single-owner (move it into the owning World)"
                        .to_string(),
                    &mut diags,
                );
            }
            if is_shared_type(t.text) {
                push(
                    "shared-mutable",
                    t.line,
                    format!(
                        "`{}` is a shared-mutable-state type; shard-payload-path crates are \
                         single-owner by construction (simkit::shard runs one worker per shard \
                         per window), so sharing primitives either hide a cross-shard side \
                         channel or serve no purpose",
                        t.text
                    ),
                    &mut diags,
                );
            }
        }
        for u in &items.uses {
            if u.in_test {
                continue;
            }
            let last = u.path.rsplit("::").next().unwrap_or("");
            let atomic_mod =
                u.path == "std::sync::atomic" || u.path.starts_with("std::sync::atomic::");
            if is_shared_type(last) || atomic_mod || u.path == "std::thread" {
                push(
                    "shared-mutable",
                    u.line,
                    format!(
                        "`use {}` imports shared-mutable-state (or threading) machinery into a \
                         shard-payload-path crate; shard state is single-owner — \
                         see the shared-mutable rule",
                        u.path
                    ),
                    &mut diags,
                );
            }
        }
    }
    // thread::spawn / thread::scope anywhere outside the shard engine:
    // the engine owns all threads; ad-hoc threads in any src/ tree can
    // observe or mutate simulation state off-schedule.
    if rel.contains("/src/") && !engine_file {
        for (i, t) in code.iter().enumerate() {
            if t.in_test || t.kind != TokenKind::Ident {
                continue;
            }
            if (t.text == "spawn" || t.text == "scope")
                && i >= 3
                && code[i - 1].text == ":"
                && code[i - 2].text == ":"
                && code[i - 3].text == "thread"
            {
                push(
                    "shared-mutable",
                    t.line,
                    format!(
                        "thread::{} creates threads outside simkit::shard, the one sanctioned \
                         parallel section; host-side parallelism must stay out of simulation \
                         crates (annotate with a reason if this is bench harness code)",
                        t.text
                    ),
                    &mut diags,
                );
            }
        }
    }

    // cross-shard-access: calling a shard-owned method outside the
    // audited store-side/barrier functions. The owned-symbol list and
    // its exemptions live in crates/lintkit/shard_owned.txt.
    for domain in shard_cfg.domains_for(rel) {
        for (i, t) in code.iter().enumerate() {
            if t.in_test || t.kind != TokenKind::Ident {
                continue;
            }
            let is_method_call = i >= 1
                && code[i - 1].kind == TokenKind::Punct
                && code[i - 1].text == "."
                && code.get(i + 1).is_some_and(|n| n.text == "(");
            if !is_method_call || !domain.owned.iter().any(|m| m == t.text) {
                continue;
            }
            let fn_name = items.enclosing_fn(i).map(|f| f.name.clone());
            if fn_name
                .as_ref()
                .is_some_and(|n| domain.exempt_fns.contains(n))
            {
                continue;
            }
            if items
                .enclosing_impl(i)
                .is_some_and(|s| domain.exempt_impls.contains(&s.type_name))
            {
                continue;
            }
            push(
                "cross-shard-access",
                t.line,
                format!(
                    ".{}() touches `{}`-domain shard-owned state from `{}`; the hub must \
                     reach it via Scheduler::send messages or ShardedSim::schedule_global \
                     barrier operations (exemptions: crates/lintkit/shard_owned.txt)",
                    t.text,
                    domain.name,
                    fn_name.as_deref().unwrap_or("<no enclosing fn>"),
                ),
                &mut diags,
            );
        }
    }

    // float-fold-order: float accumulation fed from a non-slot-ordered
    // iterator in the fluid solver. fp addition is non-associative; the
    // determinism contract requires folds to walk fixed-order structures
    // (class_bytes / class_weight / capped) or literal ranges, never a
    // map view, a filtered scratch collection or the tag heap.
    if FLOAT_FOLD_FILES.contains(&rel) {
        let sanctioned = |window: &[&Token<'_>]| {
            window.iter().enumerate().any(|(k, t)| {
                (t.kind == TokenKind::Ident && SLOT_ORDERED_SOURCES.contains(&t.text))
                    || (t.text == "."
                        && window.get(k + 1).is_some_and(|n| n.text == ".")
                        && t.kind == TokenKind::Punct)
            })
        };
        // (a) `for pat in <source> { … += … }` loops.
        for (i, t) in code.iter().enumerate() {
            if t.in_test || t.kind != TokenKind::Ident || t.text != "for" {
                continue;
            }
            // Locate `in` and the body `{` at bracket depth 0; `impl …
            // for …` blocks have no `in` and are skipped.
            let mut depth = 0i32;
            let mut in_idx = None;
            let mut body_open = None;
            for (j, u) in code.iter().enumerate().skip(i + 1) {
                match (u.kind, u.text) {
                    (TokenKind::Punct, "(") | (TokenKind::Punct, "[") => depth += 1,
                    (TokenKind::Punct, ")") | (TokenKind::Punct, "]") => depth -= 1,
                    (TokenKind::Ident, "in") if depth == 0 && in_idx.is_none() => {
                        in_idx = Some(j)
                    }
                    (TokenKind::Punct, "{") if depth == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    (TokenKind::Punct, ";") if depth == 0 => break,
                    _ => {}
                }
            }
            let (Some(in_idx), Some(open)) = (in_idx, body_open) else {
                continue;
            };
            if sanctioned(&code[in_idx + 1..open]) {
                continue;
            }
            // Find the body's end and look for a compound float
            // accumulation (`+=` / `-=`) directly inside it.
            let mut braces = 0i32;
            let mut end = open;
            for (j, u) in code.iter().enumerate().skip(open) {
                if u.kind == TokenKind::Punct {
                    match u.text {
                        "{" => braces += 1,
                        "}" => {
                            braces -= 1;
                            if braces == 0 {
                                end = j;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
            }
            for k in open..end {
                if code[k].kind == TokenKind::Punct
                    && (code[k].text == "+" || code[k].text == "-")
                    && code.get(k + 1).is_some_and(|n| n.text == "=")
                    && code.get(k + 2).is_some_and(|n| n.text != "=")
                {
                    push(
                        "float-fold-order",
                        code[k].line,
                        format!(
                            "`{}=` accumulation inside a `for` over a non-slot-ordered \
                             iterator; fp addition is non-associative, so fold over \
                             class_bytes/class_weight/capped (fixed order) instead",
                            code[k].text
                        ),
                        &mut diags,
                    );
                    break;
                }
            }
        }
        // (b) `.sum()` / `.fold()` / `.product()` whose statement does
        // not mention a slot-ordered source.
        for (i, t) in code.iter().enumerate() {
            if t.in_test
                || t.kind != TokenKind::Ident
                || !matches!(t.text, "sum" | "fold" | "product")
            {
                continue;
            }
            let dotted = i >= 1 && code[i - 1].kind == TokenKind::Punct && code[i - 1].text == ".";
            let called = code.get(i + 1).is_some_and(|n| n.text == "(")
                || (code.get(i + 1).is_some_and(|n| n.text == ":")
                    && code.get(i + 2).is_some_and(|n| n.text == ":")
                    && code.get(i + 3).is_some_and(|n| n.text == "<"));
            if !dotted || !called {
                continue;
            }
            let mut j = i;
            while j > 0 && !matches!(code[j - 1].text, ";" | "{" | "}") {
                j -= 1;
            }
            if sanctioned(&code[j..i]) {
                continue;
            }
            push(
                "float-fold-order",
                t.line,
                format!(
                    ".{}() folds floats from a non-slot-ordered iterator; fp addition is \
                     non-associative, so fold over class_bytes/class_weight/capped \
                     (fixed order) instead",
                    t.text
                ),
                &mut diags,
            );
        }
    }

    // span-balance: a span_open whose SpanId is discarded in statement
    // position opens a span nothing can ever close. Scan each non-test
    // function body; discarded opens beyond the body's span_close count are
    // reported. Captured results (`let sid = …`, returns, arguments) are
    // exempt — they are parked and closed elsewhere by construction.
    if sim_lib {
        let mut f = 0usize;
        while f < code.len() {
            let ft = code[f];
            if !(ft.kind == TokenKind::Ident && ft.text == "fn") || ft.in_test {
                f += 1;
                continue;
            }
            // Find the body's opening brace; a `;` first means no body.
            let mut j = f + 1;
            let body = loop {
                match code.get(j) {
                    None => break None,
                    Some(t) if t.kind == TokenKind::Punct && t.text == "{" => break Some(j),
                    Some(t) if t.kind == TokenKind::Punct && t.text == ";" => break None,
                    Some(_) => j += 1,
                }
            };
            let Some(open) = body else {
                f = j.min(code.len());
                continue;
            };
            let mut depth = 1usize;
            let mut k = open + 1;
            let mut dropped: Vec<u32> = Vec::new();
            let mut closes = 0usize;
            while k < code.len() && depth > 0 {
                let tk = code[k];
                if tk.kind == TokenKind::Punct {
                    if tk.text == "{" {
                        depth += 1;
                    } else if tk.text == "}" {
                        depth -= 1;
                    }
                } else if tk.kind == TokenKind::Ident
                    && code.get(k + 1).is_some_and(|n| n.text == "(")
                    && code[k - 1].text != "fn"
                {
                    if tk.text == "span_close" {
                        closes += 1;
                    } else if tk.text == "span_open" {
                        // Walk back to the start of the call's receiver
                        // chain (`self.tracer.span_open`, `tr::span_open`).
                        let mut p = k;
                        while p >= 1 {
                            let mut q = p;
                            while q >= 1
                                && code[q - 1].kind == TokenKind::Punct
                                && (code[q - 1].text == "." || code[q - 1].text == ":")
                            {
                                q -= 1;
                            }
                            if q == p {
                                break;
                            }
                            if q >= 1 && code[q - 1].kind == TokenKind::Ident {
                                p = q - 1;
                            } else {
                                p = q;
                                break;
                            }
                        }
                        let stmt = p <= open + 1
                            || matches!(code[p - 1].text, ";" | "{" | "}");
                        // The call's value is discarded only when the call
                        // itself ends the statement (`…span_open(…);`).
                        let mut paren = 0usize;
                        let mut m = k + 1;
                        while m < code.len() {
                            if code[m].kind == TokenKind::Punct {
                                if code[m].text == "(" {
                                    paren += 1;
                                } else if code[m].text == ")" {
                                    paren -= 1;
                                    if paren == 0 {
                                        break;
                                    }
                                }
                            }
                            m += 1;
                        }
                        let discarded =
                            code.get(m + 1).is_some_and(|n| n.text == ";");
                        if stmt && discarded {
                            dropped.push(tk.line);
                        }
                    }
                }
                k += 1;
            }
            let excess = dropped.len().saturating_sub(closes);
            for line in dropped.iter().rev().take(excess).rev() {
                push(
                    "span-balance",
                    *line,
                    "span_open's SpanId is discarded and this function body has no \
                     matching span_close; bind the id and close it, or park it \
                     somewhere a later close can reach"
                        .to_string(),
                    &mut diags,
                );
            }
            f += 1;
        }
    }

    for (line, msg) in test_only {
        push("test-only-pub", *line, msg.clone(), &mut diags);
    }

    // stale-allow: every surviving annotation must have suppressed at
    // least one finding; one that fires on nothing is a stale escape
    // hatch that will silently swallow the next real regression on that
    // line. (Not itself suppressible — the fix is deleting the comment.)
    for a in &allows {
        if !a.used.get() {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: a.line,
                rule: "stale-allow",
                msg: format!(
                    "allow({}) suppresses nothing on line {} or {}; delete the annotation",
                    a.rule,
                    a.line,
                    a.line + 1
                ),
            });
        }
    }
    diags
}

/// The comment-free view of a token stream.
fn code_tokens<'t, 'a>(tokens: &'t [Token<'a>]) -> Vec<&'t Token<'a>> {
    tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect()
}

/// True for a file of a `tests/` tree: a crate's integration tests or
/// the system-test crate.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// The `pub fn` / `pub const fn` / `pub const` / `pub static` items of a
/// comment-free token stream outside test code: `(kind, name, line)`.
/// Restricted visibility (`pub(crate)`) is not `pub`.
fn pub_items<'a>(code: &[&Token<'a>]) -> Vec<(&'static str, &'a str, u32)> {
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident || t.text != "pub" {
            continue;
        }
        let at = |k: usize| code.get(i + k).map_or("", |t| t.text);
        let (kind, name_at) = match (at(1), at(2)) {
            ("fn", _) => ("fn", 2),
            ("const", "fn") => ("fn", 3),
            ("const", _) => ("const", 2),
            ("static", "mut") => ("static", 3),
            ("static", _) => ("static", 2),
            _ => continue,
        };
        if let Some(name) = code.get(i + name_at) {
            if name.kind == TokenKind::Ident && name.text != "_" {
                out.push((kind, name.text, name.line));
            }
        }
    }
    out
}

/// test-only-pub, the one cross-file rule: for each file of `files`
/// (path, marked tokens), the `(line, message)` of every `pub` item of a
/// sim-crate library that no other file names in non-test code. A name
/// counts wherever it appears as an identifier outside `#[cfg(test)]`
/// code and `tests/` trees (a `pub use` re-export included). Matching is
/// by name only, so an item that shares its name with anything used
/// elsewhere is never flagged: the rule can miss dead code, never flag
/// live code.
pub(crate) fn test_only_pub(files: &[(&str, Vec<Token<'_>>)]) -> Vec<Vec<(u32, String)>> {
    // How often each file names each identifier in non-test code.
    let named: Vec<BTreeMap<&str, usize>> = files
        .iter()
        .map(|(rel, tokens)| {
            let mut names = BTreeMap::new();
            if is_test_path(rel) {
                return names;
            }
            for t in tokens {
                if t.kind == TokenKind::Ident && !t.in_test {
                    *names.entry(t.text).or_insert(0) += 1;
                }
            }
            names
        })
        .collect();
    files
        .iter()
        .enumerate()
        .map(|(f, (rel, tokens))| {
            if !is_sim_crate_lib(rel) {
                return Vec::new();
            }
            let defs = pub_items(&code_tokens(tokens));
            defs.iter()
                .filter(|(_, name, _)| {
                    !named
                        .iter()
                        .enumerate()
                        .any(|(g, names)| g != f && names.contains_key(name))
                })
                .map(|&(kind, name, line)| {
                    // The file names the item once per definition.
                    let own_defs = defs.iter().filter(|d| d.1 == name).count();
                    let msg = if named[f].get(name).copied().unwrap_or(0) > own_defs {
                        format!(
                            "pub {kind} `{name}` is named in no other file's non-test code: \
                             only its own file uses it: drop `pub`"
                        )
                    } else {
                        format!(
                            "pub {kind} `{name}` is named in no non-test code: \
                             only tests use it: delete it"
                        )
                    };
                    (line, msg)
                })
                .collect()
        })
        .collect()
}

/// Lints one `Cargo.toml`, enforcing the zero-dependency policy: every
/// entry in any `*dependencies*` section must resolve to an in-repo path.
pub fn lint_manifest(rel: &str, src: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut push = |line: u32, msg: String| {
        diags.push(Diagnostic {
            file: rel.to_string(),
            line,
            rule: "no-extern-dep",
            msg,
        })
    };

    #[derive(PartialEq)]
    enum Mode {
        Other,
        /// `[dependencies]`-style section: each line is one dependency.
        DepList,
        /// `[dependencies.<name>]`-style section: keys describe one dep.
        DepTable,
    }
    let mut mode = Mode::Other;
    // State for a DepTable: (header line, dep name, saw path/workspace).
    let mut table: Option<(u32, String, bool)> = None;
    let flush_table = |table: &mut Option<(u32, String, bool)>,
                           push: &mut dyn FnMut(u32, String)| {
        if let Some((line, name, ok)) = table.take() {
            if !ok {
                push(
                    line,
                    format!(
                        "dependency `{name}` has no `path` (or `workspace = true`); \
                         only in-repo path dependencies are allowed"
                    ),
                );
            }
        }
    };

    for (idx, raw) in src.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = strip_toml_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_table(&mut table, &mut push);
            let name = line.trim_start_matches('[').trim_end_matches(']').trim();
            let is_dep_section = |s: &str| {
                s == "dependencies" || s.ends_with(".dependencies") || s.ends_with("-dependencies")
            };
            if is_dep_section(name) {
                mode = Mode::DepList;
            } else if let Some((head, dep)) = name.rsplit_once('.') {
                if is_dep_section(head) {
                    mode = Mode::DepTable;
                    table = Some((line_no, dep.to_string(), false));
                } else {
                    mode = Mode::Other;
                }
            } else {
                mode = Mode::Other;
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        match mode {
            Mode::Other => {}
            Mode::DepList => {
                // `foo.workspace = true` dotted form.
                if let Some((dep, attr)) = key.rsplit_once('.') {
                    if attr == "workspace" && value == "true" {
                        continue;
                    }
                    if attr == "version" || attr == "git" || attr == "registry" {
                        push(
                            line_no,
                            format!(
                                "dependency `{dep}` sets `{attr}`; external sources are \
                                 forbidden (zero-dependency policy)"
                            ),
                        );
                        continue;
                    }
                    continue;
                }
                if value.starts_with('"') || value.starts_with('\'') {
                    push(
                        line_no,
                        format!(
                            "dependency `{key}` names a registry version {value}; \
                             only in-repo path dependencies are allowed"
                        ),
                    );
                } else if value.starts_with('{') {
                    let keys = inline_table_keys(value);
                    let bad: Vec<&String> = keys
                        .iter()
                        .filter(|k| matches!(k.as_str(), "version" | "git" | "registry"))
                        .collect();
                    let has_src = keys.iter().any(|k| k == "path" || k == "workspace");
                    if let Some(b) = bad.first() {
                        push(
                            line_no,
                            format!(
                                "dependency `{key}` sets `{b}`; external sources are \
                                 forbidden (zero-dependency policy)"
                            ),
                        );
                    } else if !has_src {
                        push(
                            line_no,
                            format!(
                                "dependency `{key}` has no `path` (or `workspace = true`); \
                                 only in-repo path dependencies are allowed"
                            ),
                        );
                    }
                } else {
                    push(
                        line_no,
                        format!("dependency `{key}` has unrecognized form `{value}`"),
                    );
                }
            }
            Mode::DepTable => {
                if let Some((hl, name, ok)) = table.as_mut() {
                    match key {
                        "path" | "workspace" => *ok = true,
                        "version" | "git" | "registry" => {
                            let (hl, name) = (*hl, name.clone());
                            // Already reported; suppress the missing-path
                            // report the flush would otherwise add.
                            *ok = true;
                            push(
                                hl.max(line_no),
                                format!(
                                    "dependency `{name}` sets `{key}`; external sources \
                                     are forbidden (zero-dependency policy)"
                                ),
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    flush_table(&mut table, &mut push);
    diags
}

/// Strips a `#` comment from a TOML line, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Top-level keys of a TOML inline table `{ k = v, … }`, respecting quoted
/// strings and nested braces.
fn inline_table_keys(value: &str) -> Vec<String> {
    let inner = value
        .trim()
        .trim_start_matches('{')
        .trim_end_matches('}')
        .trim();
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut part = String::new();
    let mut parts = Vec::new();
    for c in inner.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                part.push(c);
            }
            '{' | '[' if !in_str => {
                depth += 1;
                part.push(c);
            }
            '}' | ']' if !in_str => {
                depth = depth.saturating_sub(1);
                part.push(c);
            }
            ',' if !in_str && depth == 0 => {
                parts.push(std::mem::take(&mut part));
            }
            _ => part.push(c),
        }
    }
    if !part.trim().is_empty() {
        parts.push(part);
    }
    for p in parts {
        if let Some((k, _)) = p.split_once('=') {
            keys.push(k.trim().to_string());
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rust(rel: &str, src: &str) -> Vec<Diagnostic> {
        lint_rust_file(rel, src)
    }

    #[test]
    fn hash_order_fires_in_sim_crate_lib() {
        let d = rust(
            "crates/simkit/src/engine.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "hash-order");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn hash_order_ignores_tests_and_other_crates() {
        assert!(rust(
            "crates/simkit/src/engine.rs",
            "#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n",
        )
        .is_empty());
        assert!(rust("crates/lz4kit/src/frame.rs", "use std::collections::HashMap;\n").is_empty());
        assert!(rust(
            "crates/blockstore/tests/props.rs",
            "use std::collections::HashMap;\n"
        )
        .is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_with_reason() {
        let src = "// simlint: allow(hash-order, reason = \"keys are never iterated\")\n\
                   use std::collections::HashMap;\n";
        assert!(rust("crates/simkit/src/engine.rs", src).is_empty());
        let trailing = "use std::collections::HashMap; \
                        // simlint: allow(hash-order, reason = \"never iterated\")\n";
        assert!(rust("crates/simkit/src/engine.rs", trailing).is_empty());
    }

    #[test]
    fn malformed_allow_is_its_own_violation() {
        let src = "// simlint: allow(hash-order)\nuse std::collections::HashMap;\n";
        let d = rust("crates/simkit/src/engine.rs", src);
        assert!(d.iter().any(|x| x.rule == "bad-allow"));
        assert!(d.iter().any(|x| x.rule == "hash-order"), "missing reason must not suppress");
        let unknown = "// simlint: allow(no-such-rule, reason = \"x\")\nfn f() {}\n";
        let d = rust("crates/simkit/src/engine.rs", unknown);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "bad-allow");
    }

    #[test]
    fn wall_clock_fires_everywhere_but_bench() {
        let src = "use std::time::Instant;\nfn f() { std::thread::sleep(d); }\n";
        let d = rust("crates/corpus/src/gen.rs", src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|x| x.rule == "wall-clock"));
        assert!(rust("crates/testkit/src/bench.rs", src).is_empty());
    }

    #[test]
    fn lib_unwrap_matches_calls_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n\
                   fn h(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n";
        let d = rust("crates/rocenet/src/verbs.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.rule == "lib-unwrap"));
        // unwrap mentioned in a doc comment or string is not a call.
        assert!(rust(
            "crates/rocenet/src/verbs.rs",
            "/// Calls `.unwrap()` internally.\nfn f() { let s = \".unwrap()\"; }\n"
        )
        .is_empty());
    }

    #[test]
    fn lossy_time_cast_limited_to_time_core() {
        let src = "fn f(x: u32) -> u64 { x as u64 }\n";
        assert_eq!(rust("crates/simkit/src/time.rs", src).len(), 1);
        assert_eq!(rust("crates/simkit/src/fluid.rs", src).len(), 1);
        assert_eq!(rust("crates/simkit/src/engine.rs", src).len(), 1);
        assert!(rust("crates/simkit/src/hist.rs", src).is_empty());
        // `as usize` is not a lossy time cast.
        assert!(rust("crates/simkit/src/fluid.rs", "fn f(x: u32) { x as usize; }").is_empty());
    }

    #[test]
    fn span_balance_flags_dropped_opens() {
        let src = "fn f(tr: &mut Tracer) { tr.span_open(a, b, now); }\n";
        let d = rust("crates/core/src/cluster/request.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "span-balance");
        assert_eq!(d[0].line, 1);
        // Two statement-position opens against one close: one report.
        let two = "fn f(tr: &mut Tracer) {\n    tr.span_open(a);\n    tr.span_open(b);\n    \
                   tr.span_close(id, now);\n}\n";
        let d = rust("crates/core/src/cluster/request.rs", two);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3, "the later open is the unmatched one");
    }

    #[test]
    fn span_balance_accepts_balanced_captured_and_definitions() {
        // Open and close in the same body.
        let ok = "fn f(tr: &mut Tracer) { tr.span_open(a); tr.span_close(id, now); }\n";
        assert!(rust("crates/core/src/cluster/request.rs", ok).is_empty());
        // Captured into a binding (parked and closed elsewhere).
        let cap = "fn f(tr: &mut Tracer) { let sid = self.tracer.span_open(a); park(sid); }\n";
        assert!(rust("crates/core/src/cluster/request.rs", cap).is_empty());
        // Returned to the caller.
        let ret = "fn f(tr: &mut Tracer) -> SpanId { return tr.span_open(a); }\n";
        assert!(rust("crates/core/src/cluster/request.rs", ret).is_empty());
        // The method definition itself is not a call site.
        let def = "impl Tracer { pub fn span_open(&mut self) -> SpanId { SpanId(0) } }\n";
        assert!(rust("crates/tracekit/src/tracer.rs", def).is_empty());
        // Test code is exempt.
        let test = "#[cfg(test)]\nmod tests { fn f(tr: &mut Tracer) { tr.span_open(a); } }\n";
        assert!(rust("crates/core/src/cluster/request.rs", test).is_empty());
        // Non-sim crates are out of scope.
        let other = "fn f(tr: &mut Tracer) { tr.span_open(a); }\n";
        assert!(rust("crates/bench/src/breakdown.rs", other).is_empty());
    }

    #[test]
    fn extern_dep_versions_are_rejected() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\nserde = \"1.0\"\n";
        let d = lint_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-extern-dep");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn extern_dep_inline_forms() {
        let ok = "[dependencies]\nsimkit = { path = \"../simkit\" }\n\
                  lz4kit = { workspace = true }\ncorpus.workspace = true\n";
        assert!(lint_manifest("crates/x/Cargo.toml", ok).is_empty());
        let git = "[dependencies]\nfoo = { git = \"https://example.com/foo\" }\n";
        assert_eq!(lint_manifest("crates/x/Cargo.toml", git).len(), 1);
        let versioned = "[dev-dependencies]\nbar = { version = \"0.3\", path = \"../bar\" }\n";
        assert_eq!(lint_manifest("crates/x/Cargo.toml", versioned).len(), 1);
    }

    #[test]
    fn extern_dep_table_sections() {
        let bad = "[dependencies.foo]\nversion = \"1\"\n";
        assert_eq!(lint_manifest("Cargo.toml", bad).len(), 1);
        let pathless = "[dependencies.foo]\nfeatures = [\"x\"]\n";
        assert_eq!(lint_manifest("Cargo.toml", pathless).len(), 1);
        let ok = "[dependencies.foo]\npath = \"crates/foo\"\n";
        assert!(lint_manifest("Cargo.toml", ok).is_empty());
        let ws = "[workspace.dependencies]\nsimkit = { path = \"crates/simkit\" }\n";
        assert!(lint_manifest("Cargo.toml", ws).is_empty());
    }

    #[test]
    fn package_metadata_is_not_a_dependency() {
        let toml = "[package]\nversion.workspace = true\nedition.workspace = true\n\
                    [workspace.package]\nversion = \"0.1.0\"\n";
        assert!(lint_manifest("Cargo.toml", toml).is_empty());
    }
}
