//! A lightweight item-level view of a lexed Rust file.
//!
//! The shard-safety rules need more context than a flat token stream: a
//! call site is exempt when it sits inside a known helper function or an
//! `impl` block of a shard-owned type, and the `shared-mutable` rule must
//! treat a forbidden name inside a `use` declaration differently from one
//! at a construction site. This module walks the comment-free token
//! stream once and indexes:
//!
//! - **functions** (`fn name … { … }`) with their body token span,
//!   nested functions included (innermost-wins lookup via
//!   [`ItemIndex::enclosing_fn`]);
//! - **impl blocks** (`impl Type { … }` / `impl Trait for Type { … }`)
//!   with the implemented type's name and body span;
//! - **type definitions** (`struct`/`enum`/`trait` names);
//! - **use declarations**, flattened so `use std::sync::{Mutex, Arc};`
//!   yields the leaf paths `std::sync::Mutex` and `std::sync::Arc`.
//!
//! This is *not* a Rust parser — it is a brace-matching indexer over the
//! same lexer simlint already trusts, deliberately conservative in the
//! same way the lexer's `#[cfg(test)]` detection is: good enough to place
//! every construct that appears in this workspace, and when it cannot
//! place a token it simply reports "no enclosing item", which makes the
//! rules *stricter*, never looser.

use crate::lexer::{Token, TokenKind};

/// A function item: `fn name` plus the token span of its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Index (into the comment-free token slice) of the body's `{`.
    pub start: usize,
    /// Index of the matching `}` (== `start` for bodyless signatures).
    pub end: usize,
}

/// An `impl` block: the implemented type plus its body span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplSpan {
    /// The type the block implements (the `T` of `impl T` /
    /// `impl Trait for T`).
    pub type_name: String,
    /// Line of the `impl` keyword.
    pub line: u32,
    /// Index of the body's `{`.
    pub start: usize,
    /// Index of the matching `}`.
    pub end: usize,
}

/// A `struct` / `enum` / `trait` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDef {
    /// `"struct"`, `"enum"`, or `"trait"`.
    pub kind: &'static str,
    /// The type's name.
    pub name: String,
    /// Line of the defining keyword.
    pub line: u32,
}

/// One flattened leaf of a `use` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseLeaf {
    /// The full `::`-joined path (`std::sync::Mutex`); globs end in `*`.
    pub path: String,
    /// Line of the leaf's final segment.
    pub line: u32,
    /// True when the declaration sits in `#[cfg(test)]` code.
    pub in_test: bool,
}

/// The indexed items of one file.
#[derive(Debug, Default)]
pub struct ItemIndex {
    /// Every named function, in source order.
    pub fns: Vec<FnSpan>,
    /// Every impl block, in source order.
    pub impls: Vec<ImplSpan>,
    /// Every struct/enum/trait definition.
    pub types: Vec<TypeDef>,
    /// Every `use` leaf path.
    pub uses: Vec<UseLeaf>,
    /// Token-index ranges `[start, end]` covered by `use` declarations
    /// (so ident-level rules can skip imports they handle path-wise).
    pub use_spans: Vec<(usize, usize)>,
}

impl ItemIndex {
    /// The innermost function whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start < idx && idx < f.end)
            .min_by_key(|f| f.end - f.start)
    }

    /// The innermost impl block whose body contains token `idx`.
    pub fn enclosing_impl(&self, idx: usize) -> Option<&ImplSpan> {
        self.impls
            .iter()
            .filter(|s| s.start < idx && idx < s.end)
            .min_by_key(|s| s.end - s.start)
    }

    /// True when token `idx` sits inside a `use` declaration.
    pub fn in_use_decl(&self, idx: usize) -> bool {
        self.use_spans.iter().any(|&(s, e)| s <= idx && idx <= e)
    }
}

/// True for the token texts that open/close a matched brace pair.
fn is_punct(t: &Token<'_>, c: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == c
}

/// Finds the index of the `}` matching the `{` at `open`.
fn match_brace(code: &[&Token<'_>], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(open) {
        if is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, "}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Scans from `i` (exclusive) for the item's body `{` at bracket depth 0,
/// stopping at a bodyless `;`. Returns the `{` index.
fn find_body(code: &[&Token<'_>], i: usize) -> Option<usize> {
    let mut depth = 0i32; // () and [] nesting; a body `{` only counts at 0
    for (j, t) in code.iter().enumerate().skip(i + 1) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(j),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Skips a balanced `<…>` generics group starting at `i` (which must be
/// `<`); returns the index just past the closing `>`.
fn skip_generics(code: &[&Token<'_>], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < code.len() {
        if code[j].kind == TokenKind::Punct {
            match code[j].text {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                ";" | "{" => return j, // malformed; bail where we are
                _ => {}
            }
        }
        j += 1;
    }
    j
}

/// Extracts the implemented type name from the tokens between `impl` (at
/// `i`) and the body `{` (at `body`): the first ident of the type
/// expression, i.e. after `for` when present, after the generics group
/// otherwise, skipping `&`/`mut`/`dyn` and resolving paths to their last
/// segment (`crate::x::Foo` → `Foo`).
fn impl_type_name(code: &[&Token<'_>], i: usize, body: usize) -> String {
    let mut j = i + 1;
    if j < body && is_punct(code[j], "<") {
        j = skip_generics(code, j);
    }
    // If a `for` appears at angle depth 0, the type follows it.
    let mut depth = 0i32;
    let mut start = j;
    for (k, tok) in code.iter().enumerate().take(body).skip(j) {
        match (tok.kind, tok.text) {
            (TokenKind::Punct, "<") => depth += 1,
            (TokenKind::Punct, ">") => depth -= 1,
            (TokenKind::Ident, "for") if depth <= 0 => start = k + 1,
            _ => {}
        }
    }
    // First ident of the type expression; follow `::` to the path's end.
    let mut name = String::new();
    let mut k = start;
    while k < body {
        if code[k].kind == TokenKind::Ident && !matches!(code[k].text, "dyn" | "mut") {
            name = code[k].text.to_string();
            // Path: keep consuming `:: ident`.
            while k + 3 < body
                && is_punct(code[k + 1], ":")
                && is_punct(code[k + 2], ":")
                && code[k + 3].kind == TokenKind::Ident
            {
                k += 3;
                name = code[k].text.to_string();
            }
            break;
        }
        k += 1;
    }
    name
}

/// Flattens one `use` declaration starting at the `use` keyword (index
/// `i`), pushing leaves and returning the index of the closing `;`.
fn flatten_use(code: &[&Token<'_>], i: usize, out: &mut Vec<UseLeaf>) -> usize {
    // Stack of path prefixes for nested groups.
    let mut prefix: Vec<Vec<String>> = vec![Vec::new()];
    let mut current: Vec<String> = Vec::new();
    let mut j = i + 1;
    while j < code.len() {
        let t = code[j];
        match (t.kind, t.text) {
            (TokenKind::Punct, ";") => break,
            (TokenKind::Ident, "as") => {
                // Alias: the path itself is what matters; skip the alias name.
                j += 1;
            }
            (TokenKind::Ident, _) | (TokenKind::Punct, "*") => {
                current.push(t.text.to_string());
            }
            (TokenKind::Punct, "{") => {
                let mut base = prefix.last().cloned().unwrap_or_default();
                base.append(&mut current);
                prefix.push(base);
            }
            (TokenKind::Punct, "}") => {
                flush_use_leaf(&prefix, &mut current, t.line, t.in_test, out);
                prefix.pop();
            }
            (TokenKind::Punct, ",") => {
                flush_use_leaf(&prefix, &mut current, t.line, t.in_test, out);
            }
            _ => {}
        }
        j += 1;
    }
    let (line, in_test) = code
        .get(j)
        .map(|t| (t.line, t.in_test))
        .unwrap_or((0, false));
    flush_use_leaf(&prefix, &mut current, line, in_test, out);
    j
}

fn flush_use_leaf(
    prefix: &[Vec<String>],
    current: &mut Vec<String>,
    line: u32,
    in_test: bool,
    out: &mut Vec<UseLeaf>,
) {
    if current.is_empty() {
        return;
    }
    let mut parts = prefix.last().cloned().unwrap_or_default();
    parts.append(current);
    out.push(UseLeaf {
        path: parts.join("::"),
        line,
        in_test,
    });
}

/// Indexes the items of one file from its comment-free token slice.
pub fn index_items(code: &[&Token<'_>]) -> ItemIndex {
    let mut index = ItemIndex::default();
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text {
            "fn" => {
                // `fn` pointer types (`fn(u32) -> u32`) have no name ident.
                if let Some(name) = code.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    if let Some(open) = find_body(code, i + 1) {
                        index.fns.push(FnSpan {
                            name: name.text.to_string(),
                            line: t.line,
                            start: open,
                            end: match_brace(code, open),
                        });
                    }
                }
            }
            "impl" => {
                if let Some(open) = find_body(code, i) {
                    index.impls.push(ImplSpan {
                        type_name: impl_type_name(code, i, open),
                        line: t.line,
                        start: open,
                        end: match_brace(code, open),
                    });
                }
            }
            "struct" | "enum" | "trait" => {
                // Only definitions: the keyword followed by a name ident.
                // (`struct` cannot appear elsewhere; `trait` in bounds is
                // always part of a path or `dyn`, not keyword-position.)
                if let Some(name) = code.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    let kind = match t.text {
                        "struct" => "struct",
                        "enum" => "enum",
                        _ => "trait",
                    };
                    index.types.push(TypeDef {
                        kind,
                        name: name.text.to_string(),
                        line: t.line,
                    });
                }
            }
            "use" => {
                // Skip closures' `use` absence — `use` only occurs as a
                // declaration keyword (possibly after `pub`).
                let end = flatten_use(code, i, &mut index.uses);
                index.use_spans.push((i, end));
                i = end + 1;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_marked;

    fn index(src: &str) -> (Vec<crate::lexer::Token<'_>>, ItemIndex) {
        let tokens = lex_marked(src).expect("fixture lexes");
        let code: Vec<&Token<'_>> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        let idx = index_items(&code);
        (tokens, idx)
    }

    #[test]
    fn indexes_fns_with_nesting() {
        let src = "fn outer() { fn inner() { body(); } tail(); }\nfn second() {}\n";
        let (_t, idx) = index(src);
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "second"]);
        // A token inside inner's body resolves to inner, not outer.
        let inner = idx.fns.iter().find(|f| f.name == "inner").unwrap();
        let probe = inner.start + 1;
        assert_eq!(idx.enclosing_fn(probe).unwrap().name, "inner");
    }

    #[test]
    fn indexes_impl_type_names() {
        let src = "impl Foo { fn a(&self) {} }\n\
                   impl World for StoreShard { fn b(&self) {} }\n\
                   impl<W: ShardWorld> ShardedSim<W> { fn c(&self) {} }\n\
                   impl Trait for crate::x::Deep {}\n";
        let (_t, idx) = index(src);
        let names: Vec<&str> = idx.impls.iter().map(|s| s.type_name.as_str()).collect();
        assert_eq!(names, ["Foo", "StoreShard", "ShardedSim", "Deep"]);
        let a = &idx.fns[0];
        assert_eq!(idx.enclosing_impl(a.start + 1).unwrap().type_name, "Foo");
    }

    #[test]
    fn flattens_use_groups_and_aliases() {
        let src = "use std::sync::{Mutex, atomic::{AtomicU64, Ordering}};\n\
                   use std::cell::RefCell as RC;\nuse std::collections::*;\n";
        let (_t, idx) = index(src);
        let paths: Vec<&str> = idx.uses.iter().map(|u| u.path.as_str()).collect();
        assert!(paths.contains(&"std::sync::Mutex"), "{paths:?}");
        assert!(paths.contains(&"std::sync::atomic::AtomicU64"), "{paths:?}");
        assert!(paths.contains(&"std::sync::atomic::Ordering"), "{paths:?}");
        assert!(paths.contains(&"std::cell::RefCell"), "{paths:?}");
        assert!(paths.contains(&"std::collections::*"), "{paths:?}");
    }

    #[test]
    fn use_spans_cover_their_tokens() {
        let src = "use std::sync::Mutex;\nfn f() { let m = Mutex::new(0); }\n";
        let (tokens, idx) = index(src);
        let code: Vec<&Token<'_>> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        let first_mutex = code.iter().position(|t| t.text == "Mutex").unwrap();
        let second_mutex = code.iter().rposition(|t| t.text == "Mutex").unwrap();
        assert!(idx.in_use_decl(first_mutex));
        assert!(!idx.in_use_decl(second_mutex));
    }

    #[test]
    fn type_defs_are_indexed() {
        let src = "pub struct A { x: u32 }\nenum B { C }\ntrait D {}\n";
        let (_t, idx) = index(src);
        let kinds: Vec<(&str, &str)> = idx
            .types
            .iter()
            .map(|d| (d.kind, d.name.as_str()))
            .collect();
        assert_eq!(kinds, [("struct", "A"), ("enum", "B"), ("trait", "D")]);
    }
}
