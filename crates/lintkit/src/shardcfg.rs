//! Owned-symbol configuration for the `cross-shard-access` rule.
//!
//! The sharded cluster's correctness argument says shard-owned state —
//! a storage server's chunk store, disk model, and in-flight RPC table —
//! may only be touched by code running on that shard; the hub reaches it
//! exclusively through `Step::Store`-style messages (`Scheduler::send`)
//! or barrier operations (`ShardedSim::schedule_global`). simlint
//! enforces the static shadow of that rule: inside the files of a *shard
//! domain*, a call to an *owned method* is only legal from an exempt
//! function (the audited barrier operations and post-run audit) or from
//! an `impl` block of an exempt type (the shard world itself).
//!
//! Domains are configured in `crates/lintkit/shard_owned.txt`, a small
//! line-oriented format (one `[domain]` section per shard domain with
//! `files` / `owned` / `exempt-fn` / `exempt-impl` keys); when the file
//! is absent — fixture tests, single-file lints — [`ShardConfig::builtin`]
//! supplies the copy compiled into lintkit.

/// One shard domain: which files it governs, which method names are
/// owned by the shard, and which functions/impls may legally touch them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDomain {
    /// Domain name (for diagnostics).
    pub name: String,
    /// Workspace-relative file paths (exact match) the domain governs.
    pub files: Vec<String>,
    /// Method names owned by the shard: calling `.name(…)` outside an
    /// exempt context is a violation.
    pub owned: Vec<String>,
    /// Function names allowed to call owned methods (audited helpers
    /// running store-side or at a barrier).
    pub exempt_fns: Vec<String>,
    /// Types whose `impl` blocks are allowed (the shard world itself).
    pub exempt_impls: Vec<String>,
}

/// The full `cross-shard-access` configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardConfig {
    /// Every configured shard domain.
    pub domains: Vec<ShardDomain>,
}

impl ShardConfig {
    /// `crates/lintkit/shard_owned.txt` as compiled into lintkit.
    ///
    /// # Panics
    ///
    /// Panics if the compiled-in file does not parse.
    pub fn builtin() -> Self {
        Self::parse(include_str!("../shard_owned.txt"))
            .expect("crates/lintkit/shard_owned.txt parses")
    }

    /// Parses the `shard_owned.txt` format. Lines starting with `#` are
    /// comments; `[name]` opens a domain; `key = v1 v2 …` lines list the
    /// domain's files/symbols (keys: `files`, `owned`, `exempt-fn`,
    /// `exempt-impl`).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = ShardConfig::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |msg: &str| Err(format!("shard_owned.txt:{}: {msg}", idx + 1));
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']') else {
                    return err("unterminated [domain] header");
                };
                cfg.domains.push(ShardDomain {
                    name: name.trim().to_string(),
                    files: Vec::new(),
                    owned: Vec::new(),
                    exempt_fns: Vec::new(),
                    exempt_impls: Vec::new(),
                });
                continue;
            }
            let Some((key, values)) = line.split_once('=') else {
                return err("expected `key = value …` or `[domain]`");
            };
            let Some(domain) = cfg.domains.last_mut() else {
                return err("key before any [domain] header");
            };
            let values: Vec<String> = values.split_whitespace().map(str::to_string).collect();
            match key.trim() {
                "files" => domain.files.extend(values),
                "owned" => domain.owned.extend(values),
                "exempt-fn" => domain.exempt_fns.extend(values),
                "exempt-impl" => domain.exempt_impls.extend(values),
                other => return Err(format!("shard_owned.txt:{}: unknown key `{other}`", idx + 1)),
            }
        }
        for d in &cfg.domains {
            if d.files.is_empty() || d.owned.is_empty() {
                return Err(format!(
                    "shard_owned.txt: domain `{}` needs at least one file and one owned symbol",
                    d.name
                ));
            }
        }
        Ok(cfg)
    }

    /// Domains governing the workspace-relative file `rel`.
    pub fn domains_for<'a>(&'a self, rel: &str) -> impl Iterator<Item = &'a ShardDomain> {
        let rel = rel.to_string();
        self.domains
            .iter()
            .filter(move |d| d.files.iter().any(|f| f == &rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_builtin_format() {
        let text = "# comment\n[store]\nfiles = crates/core/src/cluster/mod.rs\n\
                    owned = append fetch\nexempt-fn = store_finish\nexempt-impl = StoreShard\n";
        let cfg = ShardConfig::parse(text).unwrap();
        assert_eq!(cfg.domains.len(), 1);
        let d = &cfg.domains[0];
        assert_eq!(d.name, "store");
        assert_eq!(d.owned, ["append", "fetch"]);
        assert_eq!(d.exempt_impls, ["StoreShard"]);
        assert_eq!(cfg.domains_for("crates/core/src/cluster/mod.rs").count(), 1);
        assert_eq!(cfg.domains_for("crates/core/src/api.rs").count(), 0);
    }

    #[test]
    fn rejects_malformed_config() {
        assert!(ShardConfig::parse("owned = x\n").is_err(), "key before header");
        assert!(ShardConfig::parse("[d]\nbogus = x\n").is_err(), "unknown key");
        assert!(ShardConfig::parse("[d]\n").is_err(), "empty domain");
    }
}
