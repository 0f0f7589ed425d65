//! A small hand-rolled Rust lexer, sufficient for the simlint rules.
//!
//! This is not a full Rust tokenizer: it only needs to distinguish code
//! identifiers from the places they must *not* be matched — line and
//! (nested) block comments, string literals (plain, raw, byte, byte-raw),
//! char literals, and lifetimes — and to attribute every token to a line
//! number and a `#[cfg(test)]` region. Numeric literals and punctuation are
//! lexed coarsely (single-character punctuation tokens), which is exactly
//! what the pattern-matching rules in [`crate::rules`] need.

use std::fmt;

/// Coarse token classification.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including `as`, `mod`, `fn`, …).
    Ident,
    /// A single punctuation character (`.`, `(`, `#`, `:`, …).
    Punct,
    /// A numeric literal (lexed greedily; suffixes included).
    Num,
    /// Any string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// A char or byte-char literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// A lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// A `// …` comment (text includes the slashes, excludes the newline).
    LineComment,
    /// A `/* … */` comment (possibly nested, possibly multi-line).
    BlockComment,
}

/// One lexed token, borrowing its text from the source.
#[derive(Clone, Debug)]
pub struct Token<'a> {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: u32,
    /// True when the token lies inside a `#[cfg(test)]` / `#[test]` item
    /// (set by [`mark_test_regions`], not by the lexer itself).
    pub in_test: bool,
}

/// A lexing failure (unterminated string or comment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Line the offending token started on.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LexError {}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenizes `src`, returning tokens with `in_test` unset.
///
/// # Errors
///
/// Returns a [`LexError`] for unterminated strings, chars, or block
/// comments; everything else lexes (coarsely) without error.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let b = src.as_bytes();
    let n = b.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    macro_rules! push {
        ($kind:expr, $start:expr, $end:expr, $line:expr) => {
            toks.push(Token {
                kind: $kind,
                text: &src[$start..$end],
                line: $line,
                in_test: false,
            })
        };
    }
    while i < n {
        let c = b[i];
        // Whitespace.
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let start = i;
            while i < n && b[i] != b'\n' {
                i += 1;
            }
            push!(TokenKind::LineComment, start, i, line);
            continue;
        }
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let (start, start_line) = (i, line);
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            if depth > 0 {
                return Err(LexError {
                    line: start_line,
                    msg: "unterminated block comment".into(),
                });
            }
            push!(TokenKind::BlockComment, start, i, start_line);
            continue;
        }
        // Raw / byte string prefixes and raw identifiers.
        if c == b'r' || c == b'b' {
            // br"…" / br#"…"# (only with leading b).
            let (prefix_len, rest) = if c == b'b' && i + 1 < n && b[i + 1] == b'r' {
                (2, &b[i + 2..])
            } else if c == b'r' || c == b'b' {
                (1, &b[i + 1..])
            } else {
                unreachable!()
            };
            let is_raw = (c == b'r' || prefix_len == 2)
                && matches!(rest.first(), Some(b'"') | Some(b'#'));
            if is_raw {
                // Raw identifier r#foo (only for the plain-r prefix).
                if c == b'r'
                    && prefix_len == 1
                    && rest.first() == Some(&b'#')
                    && rest.get(1).is_some_and(|&x| is_ident_start(x))
                {
                    let start = i;
                    i += 2;
                    while i < n && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    push!(TokenKind::Ident, start, i, line);
                    continue;
                }
                // Raw string: count hashes, then find the closing quote.
                let (start, start_line) = (i, line);
                i += prefix_len;
                let mut hashes = 0usize;
                while i < n && b[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                if i >= n || b[i] != b'"' {
                    // `r#` that was not a raw string after all (e.g. `r#[`
                    // cannot occur; treat the `r` as an ident and resume).
                    i = start + 1;
                    push!(TokenKind::Ident, start, i, start_line);
                    continue;
                }
                i += 1; // opening quote
                'raw: loop {
                    if i >= n {
                        return Err(LexError {
                            line: start_line,
                            msg: "unterminated raw string".into(),
                        });
                    }
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                        continue;
                    }
                    if b[i] == b'"' {
                        let mut k = 0usize;
                        while k < hashes && i + 1 + k < n && b[i + 1 + k] == b'#' {
                            k += 1;
                        }
                        if k == hashes {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
                push!(TokenKind::Str, start, i, start_line);
                continue;
            }
            // b"…" byte string.
            if c == b'b' && rest.first() == Some(&b'"') {
                let (start, start_line) = (i, line);
                i += 1; // consume the b; fall through to string lexing below
                let (ni, nl) = lex_quoted(src, i, line, b'"')
                    .map_err(|msg| LexError { line: start_line, msg })?;
                i = ni;
                line = nl;
                push!(TokenKind::Str, start, i, start_line);
                continue;
            }
            // b'…' byte char.
            if c == b'b' && rest.first() == Some(&b'\'') {
                let (start, start_line) = (i, line);
                i += 1;
                let (ni, nl) = lex_quoted(src, i, line, b'\'')
                    .map_err(|msg| LexError { line: start_line, msg })?;
                i = ni;
                line = nl;
                push!(TokenKind::Char, start, i, start_line);
                continue;
            }
            // Otherwise: an ordinary identifier starting with r/b.
        }
        // Identifiers and keywords.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            push!(TokenKind::Ident, start, i, line);
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (b[i].is_ascii_alphanumeric()
                    || b[i] == b'_'
                    || (b[i] == b'.'
                        && i + 1 < n
                        && b[i + 1].is_ascii_digit()
                        && !src[start..i].contains('.')))
            {
                i += 1;
            }
            push!(TokenKind::Num, start, i, line);
            continue;
        }
        // Strings.
        if c == b'"' {
            let (start, start_line) = (i, line);
            let (ni, nl) = lex_quoted(src, i, line, b'"')
                .map_err(|msg| LexError { line: start_line, msg })?;
            i = ni;
            line = nl;
            push!(TokenKind::Str, start, i, start_line);
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            // Lifetime: 'ident not followed by a closing quote.
            if i + 1 < n && is_ident_start(b[i + 1]) {
                let mut j = i + 1;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                if j >= n || b[j] != b'\'' {
                    push!(TokenKind::Lifetime, i, j, line);
                    i = j;
                    continue;
                }
            }
            let (start, start_line) = (i, line);
            let (ni, nl) = lex_quoted(src, i, line, b'\'')
                .map_err(|msg| LexError { line: start_line, msg })?;
            i = ni;
            line = nl;
            push!(TokenKind::Char, start, i, start_line);
            continue;
        }
        // Everything else: one punctuation character.
        let start = i;
        // Advance by the UTF-8 width so multi-byte punctuation cannot split
        // a code point (non-ASCII idents were consumed above).
        let w = utf8_width(c);
        i += w;
        push!(TokenKind::Punct, start, i, line);
    }
    Ok(toks)
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Lexes a quoted literal starting at the opening quote `b[i] == quote`,
/// honouring backslash escapes. Returns `(index past the closing quote,
/// updated line)`.
fn lex_quoted(src: &str, i: usize, line: u32, quote: u8) -> Result<(usize, u32), String> {
    let b = src.as_bytes();
    let n = b.len();
    debug_assert_eq!(b[i], quote);
    let mut j = i + 1;
    let mut line = line;
    while j < n {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                line += 1;
                j += 1;
            }
            x if x == quote => return Ok((j + 1, line)),
            _ => j += 1,
        }
    }
    Err(if quote == b'"' {
        "unterminated string literal".into()
    } else {
        "unterminated char literal".into()
    })
}

/// Marks tokens that live inside `#[cfg(test)]` / `#[test]` items.
///
/// The scan recognises an attribute as `#` (optionally `!`) followed by a
/// bracketed token group; if the group mentions both `cfg` and `test`, or is
/// exactly `test`, the *next item* is a test region: either up to the `;`
/// that ends a body-less item, or the brace-balanced block that follows
/// (`#[cfg(test)] mod tests { … }`, `#[test] fn x() { … }`). Nested test
/// regions are handled naturally because inner tokens are already marked
/// when the outer region closes.
pub fn mark_test_regions(tokens: &mut [Token<'_>]) {
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct && tokens[i].text == "#" {
            // Optional inner-attribute bang.
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].kind == TokenKind::Punct && tokens[j].text == "!" {
                j += 1;
            }
            if j < tokens.len() && tokens[j].kind == TokenKind::Punct && tokens[j].text == "[" {
                // Collect the attribute group up to the matching ']'.
                let mut depth = 1usize;
                let mut k = j + 1;
                let mut saw_cfg = false;
                let mut saw_test = false;
                let mut idents = 0usize;
                while k < tokens.len() && depth > 0 {
                    match (tokens[k].kind, tokens[k].text) {
                        (TokenKind::Punct, "[") => depth += 1,
                        (TokenKind::Punct, "]") => depth -= 1,
                        (TokenKind::Ident, "cfg") => {
                            saw_cfg = true;
                            idents += 1;
                        }
                        (TokenKind::Ident, "test") => {
                            saw_test = true;
                            idents += 1;
                        }
                        (TokenKind::Ident, _) => idents += 1,
                        _ => {}
                    }
                    k += 1;
                }
                let is_test_attr = saw_test && (saw_cfg || idents == 1);
                if is_test_attr && depth == 0 {
                    mark_following_item(tokens, k);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
}

/// Marks the item starting at token index `from` (just past a test
/// attribute) through its terminating `;` or brace-balanced `{ … }` block.
fn mark_following_item(tokens: &mut [Token<'_>], from: usize) {
    let mut i = from;
    // Skip further attributes and comments between the attr and the item.
    while i < tokens.len() {
        match tokens[i].kind {
            TokenKind::LineComment | TokenKind::BlockComment => i += 1,
            TokenKind::Punct if tokens[i].text == "#" => {
                // Skip this whole attribute group.
                let mut j = i + 1;
                if j < tokens.len() && tokens[j].text == "!" {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].text == "[" {
                    let mut depth = 1usize;
                    j += 1;
                    while j < tokens.len() && depth > 0 {
                        match tokens[j].text {
                            "[" => depth += 1,
                            "]" => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                } else {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    // Walk the item header to its body or terminator.
    let header_start = i;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct && t.text == ";" {
            for t in &mut tokens[header_start..=i] {
                t.in_test = true;
            }
            return;
        }
        if t.kind == TokenKind::Punct && t.text == "{" {
            let mut depth = 1usize;
            let mut j = i + 1;
            while j < tokens.len() && depth > 0 {
                match (tokens[j].kind, tokens[j].text) {
                    (TokenKind::Punct, "{") => depth += 1,
                    (TokenKind::Punct, "}") => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            for t in &mut tokens[header_start..j] {
                t.in_test = true;
            }
            return;
        }
        i += 1;
    }
    // Ran off the end (malformed source): mark nothing.
}

/// Lexes and marks test regions in one call.
///
/// # Errors
///
/// Propagates [`LexError`] from [`lex`].
pub fn lex_marked(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let mut toks = lex(src)?;
    mark_test_regions(&mut toks);
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .unwrap()
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            let a = "HashMap in a string";
            // HashMap in a line comment
            /* HashMap in /* a nested */ block comment */
            let b = r#"HashMap in a raw string"#;
            let c = b"HashMap bytes";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident"));
        assert!(ids.contains(&"let"));
        assert!(!ids.contains(&"HashMap"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }").unwrap();
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text)
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text)
            .collect();
        assert_eq!(chars, vec!["'x'"]);
    }

    #[test]
    fn escaped_quote_chars() {
        let src = "let q = '\\''; let s = \"a\\\"b\";";
        let toks = lex(src).unwrap();
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 1);
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\n\nc").unwrap();
        let lines: Vec<_> = toks.iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(lines, vec![("a", 1), ("b", 2), ("c", 4)]);
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "
            fn lib_code() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
            fn more_lib() {}
        ";
        let toks = lex_marked(src).unwrap();
        let get = |name: &str| toks.iter().find(|t| t.text == name).unwrap().in_test;
        assert!(!get("lib_code"));
        assert!(get("helper"));
        assert!(get("case"));
        assert!(!get("more_lib"));
    }

    #[test]
    fn cfg_test_fn_and_use_are_marked() {
        let src = "
            #[cfg(test)]
            use std::collections::HashMap;
            #[cfg(test)]
            fn only_for_tests() { body(); }
            fn lib() {}
        ";
        let toks = lex_marked(src).unwrap();
        assert!(toks.iter().find(|t| t.text == "HashMap").unwrap().in_test);
        assert!(toks.iter().find(|t| t.text == "body").unwrap().in_test);
        assert!(!toks.iter().find(|t| t.text == "lib").unwrap().in_test);
    }

    #[test]
    fn nested_cfg_test_regions() {
        let src = "
            #[cfg(test)]
            mod outer {
                #[cfg(test)]
                mod inner { fn deep() {} }
                fn shallow() {}
            }
        ";
        let toks = lex_marked(src).unwrap();
        assert!(toks.iter().find(|t| t.text == "deep").unwrap().in_test);
        assert!(toks.iter().find(|t| t.text == "shallow").unwrap().in_test);
    }

    #[test]
    fn non_test_cfg_attr_not_marked() {
        let src = "#[cfg(feature = \"x\")] mod gated { fn f() {} }";
        let toks = lex_marked(src).unwrap();
        assert!(!toks.iter().find(|t| t.text == "f").unwrap().in_test);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("let s = \"oops").is_err());
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn raw_identifier() {
        let ids = idents("let r#type = 1;");
        assert!(ids.contains(&"r#type"));
    }
}
