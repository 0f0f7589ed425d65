//! The workspace's in-repo static-analysis pass (simlint).
//!
//! A calibrated discrete-event reproduction is only trustworthy if the same
//! seed always produces byte-identical reports. This crate enforces the
//! invariants that protect that property — and the zero-dependency build
//! policy — as named lint rules over every `.rs` file and `Cargo.toml` in
//! the workspace:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `hash-order` | no `HashMap`/`HashSet` in simulation-observable crate libraries |
//! | `wall-clock` | no `Instant`/`SystemTime`/`thread::sleep` outside `testkit::bench` |
//! | `lib-unwrap` | no `.unwrap()`/`.expect(` in sim-datapath library code (baselined) |
//! | `lossy-time-cast` | no bare `as u64`/`as f64` in simkit time arithmetic |
//! | `no-extern-dep` | every dependency is an in-repo path dependency |
//! | `shared-mutable` | no shared-mutable-state types on the shard payload path |
//! | `cross-shard-access` | shard-owned methods only from audited store/barrier code |
//! | `float-fold-order` | float folds in the fluid solver walk a fixed order |
//! | `test-only-pub` | no sim-crate `pub fn`/`const`/`static` that only tests reach (baselined) |
//! | `stale-allow` | every allow-annotation must still suppress something |
//!
//! It ships three ways: as `cargo run -p lintkit` (file:line:rule
//! diagnostics, exit code 1 on violations), as a `#[test]` embedded in each
//! crate's suite via [`assert_workspace_clean`], and as a `ci.sh` step.
//!
//! Suppression is per-site (`// simlint: allow(<rule>, reason = "…")`) or
//! via the checked-in [`baseline`] ratchet (`lintkit/baseline.txt`) which
//! grandfathers pre-existing `lib-unwrap` and `test-only-pub` sites while
//! they are burned down. The ratchet only turns one way: an entry that
//! allows more than the current count fails the scan until
//! `--baseline-write` re-records it.
//!
//! Everything here is zero-dependency by construction: the lexer in
//! [`lexer`] is hand-rolled (comment/string/attribute aware, with
//! `#[cfg(test)]` region tracking), and the manifest checks parse the
//! narrow slice of TOML that `Cargo.toml` dependency tables use.

pub mod baseline;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod shardcfg;

pub use baseline::Baseline;
pub use rules::{lint_manifest, lint_rust_file, lint_rust_file_with, Diagnostic, RuleInfo, RULES};
pub use shardcfg::ShardConfig;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Outcome of a whole-workspace scan.
#[derive(Debug)]
pub struct Report {
    /// Violations to report (post-allow, post-baseline), sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations tolerated by the baseline ratchet.
    pub grandfathered: Vec<Diagnostic>,
    /// Stale baseline entries `(rule, file)`: pairs whose count exceeds
    /// their current violations (zero included). Each fails the scan.
    pub stale_baseline: Vec<(String, String)>,
    /// Number of files scanned (`.rs` + `Cargo.toml`).
    pub files_scanned: usize,
}

impl Report {
    /// True when nothing needs reporting: no violation, and no baseline
    /// entry left with slack.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.stale_baseline.is_empty()
    }

    /// Renders the report the way the CLI prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        out.push_str(&format!(
            "simlint: {} file(s) scanned, {} violation(s), {} grandfathered\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.grandfathered.len(),
        ));
        for (rule, file) in &self.stale_baseline {
            out.push_str(&format!(
                "crates/lintkit/baseline.txt: stale entry `{rule} {file}` allows more \
                 violations than remain — re-run `cargo run -p lintkit -- --baseline-write`\n"
            ));
        }
        out
    }

    /// Renders the report as a single-line JSON object (for `--json`):
    /// `{"files_scanned": …, "violations": […], "grandfathered": […],
    /// "stale_baseline": […]}` — machine-readable findings for tooling.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn diag_list(diags: &[Diagnostic]) -> String {
            let items: Vec<String> = diags
                .iter()
                .map(|d| {
                    format!(
                        "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"msg\":\"{}\"}}",
                        esc(&d.file),
                        d.line,
                        esc(d.rule),
                        esc(&d.msg)
                    )
                })
                .collect();
            format!("[{}]", items.join(","))
        }
        let stale: Vec<String> = self
            .stale_baseline
            .iter()
            .map(|(r, f)| format!("{{\"rule\":\"{}\",\"file\":\"{}\"}}", esc(r), esc(f)))
            .collect();
        format!(
            "{{\"files_scanned\":{},\"clean\":{},\"violations\":{},\"grandfathered\":{},\
             \"stale_baseline\":[{}]}}",
            self.files_scanned,
            self.is_clean(),
            diag_list(&self.diagnostics),
            diag_list(&self.grandfathered),
            stale.join(","),
        )
    }
}

/// Walks up from `dir` to the workspace root: the first ancestor whose
/// `Cargo.toml` contains a `[workspace]` section.
pub fn workspace_root_from(dir: &Path) -> Option<PathBuf> {
    let mut cur = Some(dir);
    while let Some(d) = cur {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        cur = d.parent();
    }
    None
}

/// Collects every `.rs` and `Cargo.toml` under `root`, skipping `target`,
/// `.git`, and hidden directories. Returned paths are workspace-relative
/// with forward slashes, sorted for deterministic output.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name == "Cargo.toml" || name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Path of the checked-in baseline file.
pub fn baseline_path(root: &Path) -> PathBuf {
    root.join("crates/lintkit/baseline.txt")
}

/// Lints every file under `root` without applying the baseline: the raw
/// diagnostic stream (already respecting allow-annotations).
///
/// # Errors
///
/// Propagates I/O failures reading the tree.
pub fn raw_scan(root: &Path) -> io::Result<(Vec<Diagnostic>, usize)> {
    let files = collect_files(root)?;
    let sources = files
        .iter()
        .map(|rel| fs::read_to_string(root.join(rel)))
        .collect::<io::Result<Vec<String>>>()?;
    let mut diags = Vec::new();
    // Shard-domain config for cross-shard-access: the checked-in file
    // when present (a malformed one is a violation, not a crash), the
    // compiled-in copy otherwise.
    let cfg_rel = "crates/lintkit/shard_owned.txt";
    let shard_cfg = match fs::read_to_string(root.join(cfg_rel)) {
        Ok(text) => match ShardConfig::parse(&text) {
            Ok(cfg) => cfg,
            Err(msg) => {
                diags.push(Diagnostic {
                    file: cfg_rel.to_string(),
                    line: 1,
                    rule: "cross-shard-access",
                    msg: format!("malformed owned-symbol config: {msg}"),
                });
                // The compiled-in copy may be the same malformed file;
                // the diagnostic above already fails the scan.
                ShardConfig::default()
            }
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => ShardConfig::builtin(),
        Err(e) => return Err(e),
    };
    // Every Rust file is lexed once: the per-file rules and the
    // cross-file test-only-pub pass share the tokens.
    let mut lexed = Vec::new();
    for (rel, src) in files.iter().zip(&sources) {
        if rel.ends_with("Cargo.toml") {
            diags.extend(lint_manifest(rel, src));
            continue;
        }
        match rules::lex_file(rel, src) {
            Ok(tokens) => lexed.push((rel.as_str(), tokens)),
            Err(d) => diags.push(d),
        }
    }
    let test_only = rules::test_only_pub(&lexed);
    for ((rel, tokens), found) in lexed.iter().zip(&test_only) {
        diags.extend(rules::lint_tokens(rel, tokens, &shard_cfg, found));
    }
    diags.sort();
    Ok((diags, files.len()))
}

/// Scans the workspace at `root`, applying the checked-in baseline.
///
/// # Errors
///
/// Propagates I/O failures; a malformed baseline file is surfaced as an
/// [`io::Error`] so the CLI exits with a distinct code.
pub fn scan(root: &Path) -> io::Result<Report> {
    let (diags, files_scanned) = raw_scan(root)?;
    let baseline = match fs::read_to_string(baseline_path(root)) {
        Ok(text) => Baseline::parse(&text).map_err(io::Error::other)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Baseline::empty(),
        Err(e) => return Err(e),
    };
    let stale_baseline = baseline
        .stale(&diags)
        .into_iter()
        .map(|(r, f)| (r.to_string(), f.to_string()))
        .collect();
    let (diagnostics, grandfathered) = baseline.apply(diags);
    Ok(Report {
        diagnostics,
        grandfathered,
        stale_baseline,
        files_scanned,
    })
}

/// Regenerates `baseline.txt` from the current violations (sorted,
/// deterministic), returning the rendered text.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_baseline(root: &Path) -> io::Result<String> {
    let (diags, _) = raw_scan(root)?;
    let text = Baseline::render_from(&diags);
    fs::write(baseline_path(root), &text)?;
    Ok(text)
}

/// Test-suite entry point: finds the workspace root above `manifest_dir`
/// (pass `env!("CARGO_MANIFEST_DIR")`), scans it, and panics with the full
/// diagnostic listing if any invariant is violated.
///
/// # Panics
///
/// Panics on violations or if the workspace root cannot be found/read —
/// both must fail the embedding test.
pub fn assert_workspace_clean(manifest_dir: &str) {
    let root = workspace_root_from(Path::new(manifest_dir))
        .unwrap_or_else(|| panic!("no workspace root above {manifest_dir}"));
    let report = scan(&root).unwrap_or_else(|e| panic!("simlint scan failed: {e}"));
    assert!(
        report.is_clean(),
        "simlint violations:\n{}",
        report.render()
    );
}
