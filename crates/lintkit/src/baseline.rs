//! The grandfather baseline: a checked-in, sorted list of `(rule, file,
//! count)` entries that tolerates pre-existing violations while blocking
//! new ones.
//!
//! The ratchet works per `(rule, file)` pair: if the current violation
//! count is at or below the baseline count, all of that pair's diagnostics
//! are grandfathered; if it exceeds the baseline, *every* diagnostic for
//! the pair is reported (the offender is usually obvious from the diff, and
//! line numbers are too unstable to key on). The ratchet turns one way
//! only: a pair whose count is above its current violations — slack left
//! by a burn-down, or a stale pair with none left — fails the scan until
//! `--baseline-write` re-tightens the counts, so no budget sits unused
//! where a new violation could take it unseen.

use crate::rules::Diagnostic;
use std::collections::BTreeMap;

/// Parsed baseline: `(rule, file) → allowed count`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(String, String), usize>,
}

impl Baseline {
    /// An empty baseline (every violation is reported).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses the `baseline.txt` format: one `rule path count` triple per
    /// line; `#` comments and blank lines are ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(path), Some(count), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline line {}: expected `rule path count`, got `{line}`",
                    idx + 1
                ));
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{count}`", idx + 1))?;
            entries.insert((rule.to_string(), path.to_string()), count);
        }
        Ok(Baseline { entries })
    }

    /// Renders diagnostics into baseline text (sorted, deterministic).
    pub fn render_from(diags: &[Diagnostic]) -> String {
        let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for d in diags {
            *counts.entry((d.rule, d.file.as_str())).or_insert(0) += 1;
        }
        let mut out = String::from(
            "# simlint baseline: grandfathered violations, one `rule path count` per line.\n\
             # Regenerate with `cargo run -p lintkit -- --baseline-write` after burning\n\
             # sites down; a count above or below the current violations fails the build.\n",
        );
        for ((rule, file), count) in counts {
            out.push_str(&format!("{rule} {file} {count}\n"));
        }
        out
    }

    /// Splits diagnostics into `(reported, grandfathered)` under this
    /// baseline.
    pub fn apply(&self, diags: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in &diags {
            *counts
                .entry((d.rule.to_string(), d.file.clone()))
                .or_insert(0) += 1;
        }
        let mut reported = Vec::new();
        let mut grandfathered = Vec::new();
        for d in diags {
            let key = (d.rule.to_string(), d.file.clone());
            let current = counts[&key];
            let budget = self.entries.get(&key).copied().unwrap_or(0);
            if current <= budget {
                grandfathered.push(d);
            } else {
                reported.push(d);
            }
        }
        (reported, grandfathered)
    }

    /// Number of `(rule, file)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the baseline grandfathers nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries whose count is above their pair's current diagnostics —
    /// slack, or a pair with none left. Each fails the scan until
    /// `--baseline-write` re-records it.
    pub fn stale<'a>(&'a self, diags: &[Diagnostic]) -> Vec<(&'a str, &'a str)> {
        self.entries
            .iter()
            .filter(|((rule, file), &budget)| {
                diags
                    .iter()
                    .filter(|d| d.rule == rule && &d.file == file)
                    .count()
                    < budget
            })
            .map(|((rule, file), _)| (rule.as_str(), file.as_str()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, line: u32) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            msg: String::new(),
        }
    }

    #[test]
    fn roundtrip_and_sorting() {
        let diags = vec![
            diag("lib-unwrap", "crates/b/src/x.rs", 9),
            diag("lib-unwrap", "crates/a/src/y.rs", 3),
            diag("lib-unwrap", "crates/a/src/y.rs", 7),
        ];
        let text = Baseline::render_from(&diags);
        let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            lines,
            vec![
                "lib-unwrap crates/a/src/y.rs 2",
                "lib-unwrap crates/b/src/x.rs 1"
            ]
        );
        let parsed = Baseline::parse(&text).unwrap();
        let (reported, grandfathered) = parsed.apply(diags);
        assert!(reported.is_empty());
        assert_eq!(grandfathered.len(), 3);
    }

    #[test]
    fn exceeding_budget_reports_all_for_the_pair() {
        let base = Baseline::parse("lib-unwrap crates/a/src/y.rs 1\n").unwrap();
        let diags = vec![
            diag("lib-unwrap", "crates/a/src/y.rs", 3),
            diag("lib-unwrap", "crates/a/src/y.rs", 7),
        ];
        let (reported, grandfathered) = base.apply(diags);
        assert_eq!(reported.len(), 2, "over budget: everything surfaces");
        assert!(grandfathered.is_empty());
    }

    #[test]
    fn burn_down_is_free() {
        // Burning sites down reports no violation; the slack it leaves is
        // stale until the baseline is re-recorded.
        let base = Baseline::parse("lib-unwrap crates/a/src/y.rs 5\n").unwrap();
        let diags = vec![diag("lib-unwrap", "crates/a/src/y.rs", 3)];
        let (reported, grandfathered) = base.apply(diags.clone());
        assert!(reported.is_empty());
        assert_eq!(grandfathered.len(), 1);
        assert_eq!(base.stale(&diags).len(), 1, "a pair with slack is stale");
        assert_eq!(base.stale(&[]).len(), 1, "fully burned pairs are stale");
        let exact = Baseline::parse("lib-unwrap crates/a/src/y.rs 1\n").unwrap();
        assert!(
            exact.stale(&diags).is_empty(),
            "an exact count is not stale"
        );
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(Baseline::parse("lib-unwrap only-two\n").is_err());
        assert!(Baseline::parse("lib-unwrap a b c\n").is_err());
        assert!(Baseline::parse("lib-unwrap path NaN\n").is_err());
        assert!(Baseline::parse("# comment\n\n").unwrap().is_empty());
    }
}
