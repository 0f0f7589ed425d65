//! Fixture and property tests for the simlint rules: synthetic files run
//! through [`lintkit::lint_rust_file`] / [`lintkit::lint_manifest`],
//! including the two regressions the issue pins down (a `HashMap` appearing
//! in `crates/simkit/src/engine.rs`, a versioned dependency appearing in a
//! manifest) and the lexer's blindness to idents hiding in strings,
//! comments, and raw strings.

use lintkit::rules::{lint_manifest, lint_rust_file};

fn rules_of(diags: &[lintkit::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- hash-order

#[test]
fn hashmap_in_simkit_engine_is_flagged() {
    // The issue's acceptance fixture: introducing a HashMap into the event
    // engine must turn the scan red.
    let src = "use std::collections::HashMap;\npub struct Engine { q: HashMap<u64, u64> }\n";
    let diags = lint_rust_file("crates/simkit/src/engine.rs", src);
    assert_eq!(rules_of(&diags), ["hash-order", "hash-order"]);
    assert_eq!(diags[0].line, 1);
    assert_eq!(diags[1].line, 2);
}

#[test]
fn hashset_in_core_lib_is_flagged() {
    let diags = lint_rust_file(
        "crates/core/src/agent.rs",
        "use std::collections::HashSet;\n",
    );
    assert_eq!(rules_of(&diags), ["hash-order"]);
}

#[test]
fn hashmap_outside_sim_crates_is_fine() {
    // lintkit itself, testkit, corpus, benches: not simulation-observable.
    for rel in [
        "crates/lintkit/src/rules.rs",
        "crates/testkit/src/gen.rs",
        "crates/bench/src/main.rs",
    ] {
        let diags = lint_rust_file(rel, "use std::collections::HashMap;\n");
        assert!(diags.is_empty(), "{rel}: {diags:?}");
    }
}

#[test]
fn hashmap_in_tests_dir_and_cfg_test_is_fine() {
    // Integration tests are not library code.
    assert!(lint_rust_file(
        "crates/simkit/tests/engine_props.rs",
        "use std::collections::HashMap;\n"
    )
    .is_empty());
    // #[cfg(test)] regions inside a sim crate are exempt.
    let src = "pub fn f() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   use std::collections::HashMap;\n\
                   fn helper() -> HashMap<u8, u8> { HashMap::new() }\n\
               }\n";
    assert!(lint_rust_file("crates/simkit/src/engine.rs", src).is_empty());
}

#[test]
fn nested_cfg_test_modules_stay_exempt() {
    let src = "#[cfg(test)]\n\
               mod outer {\n\
                   mod inner {\n\
                       use std::collections::HashMap;\n\
                   }\n\
               }\n";
    assert!(lint_rust_file("crates/rocenet/src/verbs.rs", src).is_empty());
}

#[test]
fn hashmap_hidden_in_strings_and_comments_is_invisible() {
    let src = concat!(
        "// HashMap mentioned in a comment is prose, not code\n",
        "/* block comment: HashMap<K, V> /* nested: HashSet */ still prose */\n",
        "pub const DOC: &str = \"uses a HashMap internally\";\n",
        "pub const RAW: &str = r#\"HashMap in a raw string \"quoted\" too\"#;\n",
        "pub const BYTES: &[u8] = b\"HashSet\";\n",
    );
    assert!(lint_rust_file("crates/simkit/src/engine.rs", src).is_empty());
}

#[test]
fn allow_annotation_suppresses_with_reason() {
    let src = "// simlint: allow(hash-order, reason = \"scratch map, never iterated\")\n\
               use std::collections::HashMap;\n";
    assert!(lint_rust_file("crates/simkit/src/engine.rs", src).is_empty());
}

#[test]
fn allow_without_reason_is_itself_a_violation() {
    let src = "// simlint: allow(hash-order)\nuse std::collections::HashMap;\n";
    let diags = lint_rust_file("crates/simkit/src/engine.rs", src);
    assert!(rules_of(&diags).contains(&"bad-allow"), "{diags:?}");
    // And the annotation does NOT suppress.
    assert!(rules_of(&diags).contains(&"hash-order"), "{diags:?}");
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_types_are_flagged_everywhere_but_bench() {
    let src = "use std::time::Instant;\n\
               pub fn now() -> Instant { Instant::now() }\n";
    assert!(!lint_rust_file("crates/simkit/src/engine.rs", src).is_empty());
    assert!(!lint_rust_file("crates/testkit/src/gen.rs", src).is_empty());
    // The one sanctioned home for wall-clock time.
    assert!(lint_rust_file("crates/testkit/src/bench.rs", src).is_empty());
}

#[test]
fn thread_sleep_is_flagged() {
    let diags = lint_rust_file(
        "crates/core/src/cluster/mod.rs",
        "pub fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
    );
    assert_eq!(rules_of(&diags), ["wall-clock"]);
}

// ---------------------------------------------------------------- lib-unwrap

#[test]
fn unwrap_in_sim_lib_flagged_but_not_in_tests() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn ok() { Some(1u8).unwrap(); }\n\
               }\n";
    let diags = lint_rust_file("crates/blockstore/src/chunk.rs", src);
    assert_eq!(rules_of(&diags), ["lib-unwrap"]);
    assert_eq!(diags[0].line, 1);
}

#[test]
fn expect_call_is_flagged_but_expect_ident_alone_is_not() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.expect(\"boom\") }\n\
               pub fn expect_nothing() {}\n";
    let diags = lint_rust_file("crates/rocenet/src/verbs.rs", src);
    assert_eq!(rules_of(&diags), ["lib-unwrap"]);
}

// ----------------------------------------------------------- lossy-time-cast

#[test]
fn bare_time_casts_flagged_only_in_listed_files() {
    let src = "pub fn f(x: f64) -> u64 { x as u64 }\n";
    assert_eq!(
        rules_of(&lint_rust_file("crates/simkit/src/time.rs", src)),
        ["lossy-time-cast"]
    );
    assert_eq!(
        rules_of(&lint_rust_file("crates/simkit/src/fluid.rs", src)),
        ["lossy-time-cast"]
    );
    // Same code elsewhere is not time arithmetic.
    assert!(lint_rust_file("crates/simkit/src/stats.rs", src).is_empty());
}

#[test]
fn as_usize_is_not_a_time_cast() {
    let src = "pub fn f(x: u32) -> usize { x as usize }\n";
    assert!(lint_rust_file("crates/simkit/src/time.rs", src).is_empty());
}

// ------------------------------------------------------------- no-extern-dep

#[test]
fn versioned_dependency_is_flagged() {
    // The issue's second acceptance fixture: `serde = "1"` must fail.
    let src = "[package]\nname = \"simkit\"\n\n[dependencies]\nserde = \"1\"\n";
    let diags = lint_manifest("crates/simkit/Cargo.toml", src);
    assert_eq!(rules_of(&diags), ["no-extern-dep"]);
    assert_eq!(diags[0].line, 5);
}

#[test]
fn git_and_registry_deps_are_flagged() {
    let src = "[dependencies]\n\
               a = { git = \"https://example.com/a\" }\n\
               b = { version = \"0.3\", features = [\"std\"] }\n\
               [dev-dependencies.c]\n\
               registry = \"crates-io\"\n";
    let diags = lint_manifest("crates/core/Cargo.toml", src);
    assert_eq!(rules_of(&diags), ["no-extern-dep"; 3]);
}

#[test]
fn path_and_workspace_deps_are_fine() {
    let src = "[package]\nname = \"core\"\n\n[dependencies]\n\
               simkit = { workspace = true }\n\
               rocenet = { path = \"../rocenet\" }\n\
               [dev-dependencies]\n\
               testkit.workspace = true\n";
    assert!(lint_manifest("crates/core/Cargo.toml", src).is_empty());
}

// ------------------------------------------------------------ shared-mutable

#[test]
fn shared_mutable_types_flagged_in_sim_crate_libs() {
    let src = "use std::sync::Mutex;\n\
               pub struct S { m: Mutex<u64>, a: std::sync::atomic::AtomicU64 }\n\
               static mut COUNTER: u64 = 0;\n";
    let diags = lint_rust_file("crates/core/src/cluster/mod.rs", src);
    let rules = rules_of(&diags);
    assert!(rules.iter().all(|r| *r == "shared-mutable"), "{diags:?}");
    // use-decl, Mutex field, AtomicU64 field, static mut: four findings.
    assert_eq!(rules.len(), 4, "{diags:?}");
}

#[test]
fn shared_mutable_catches_aliased_imports() {
    // Renaming on import must not dodge the rule: the use-path check sees
    // the real path even when the local name is innocuous.
    let src = "use std::cell::RefCell as Plain;\npub struct S { c: Plain }\n";
    let diags = lint_rust_file("crates/blockstore/src/chunk.rs", src);
    assert_eq!(rules_of(&diags), ["shared-mutable"], "{diags:?}");
}

#[test]
fn thread_spawn_flagged_outside_the_shard_engine() {
    let src = "pub fn go() { std::thread::spawn(|| {}); }\n";
    // In a sim crate and in any other src/ tree (bench, testkit, …).
    assert_eq!(
        rules_of(&lint_rust_file("crates/core/src/agent.rs", src)),
        ["shared-mutable"]
    );
    assert_eq!(
        rules_of(&lint_rust_file("crates/bench/src/pool.rs", src)),
        ["shared-mutable"]
    );
    // The shard engine itself is the sanctioned home for threads.
    let scoped = "pub fn run() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    assert!(lint_rust_file("crates/simkit/src/shard.rs", scoped).is_empty());
}

#[test]
fn shared_mutable_allowed_and_clean_cases() {
    // A justified single-owner cache suppresses with a reason.
    let allowed = "// simlint: allow(shared-mutable, reason = \"single-owner memo cache\")\n\
                   use std::cell::Cell;\n";
    assert!(lint_rust_file("crates/simkit/src/fluid.rs", allowed).is_empty());
    // Non-sim crates may use interior mutability freely.
    let src = "use std::cell::Cell;\npub struct S { c: Cell<u32> }\n";
    assert!(lint_rust_file("crates/testkit/src/runner.rs", src).is_empty());
    // Test code inside a sim crate is exempt.
    let test = "#[cfg(test)]\nmod tests { use std::sync::Mutex;\n fn f() { Mutex::new(0); } }\n";
    assert!(lint_rust_file("crates/core/src/cluster/mod.rs", test).is_empty());
    // Arc alone is fine: immutable sharing is not shared *mutable* state.
    let arc = "use std::sync::Arc;\npub struct S { b: Arc<[u8]> }\n";
    assert!(lint_rust_file("crates/simkit/src/bytes.rs", arc).is_empty());
}

// -------------------------------------------------------- cross-shard-access

#[test]
fn owned_method_call_outside_exempt_context_is_flagged() {
    let src = "impl Cluster {\n\
                   fn sneaky(&mut self) { self.servers[0].set_alive(false); }\n\
               }\n";
    let diags = lint_rust_file("crates/core/src/cluster/mod.rs", src);
    assert_eq!(rules_of(&diags), ["cross-shard-access"], "{diags:?}");
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].msg.contains("sneaky"), "{}", diags[0].msg);
    assert!(diags[0].msg.contains("Scheduler::send"), "{}", diags[0].msg);
}

#[test]
fn exempt_fns_and_impls_may_touch_owned_state() {
    // The audited post-run audit helper by name…
    let helper = "fn verify_stored(server: &StorageServer) { server.chunks(); }\n";
    assert!(lint_rust_file("crates/core/src/cluster/mod.rs", helper).is_empty());
    // …and anything inside the shard world's own impl.
    let shard = "impl World for StoreShard {\n\
                     fn handle(&mut self) { self.server.set_alive(true); }\n\
                 }\n";
    assert!(lint_rust_file("crates/core/src/cluster/mod.rs", shard).is_empty());
    // Barrier operations are exempt fns too.
    let global = "fn scrub_global(hub: &mut Cluster) { hub.scrubber.scrub_with(srv, f); }\n";
    assert!(lint_rust_file("crates/core/src/cluster/mod.rs", global).is_empty());
}

#[test]
fn cross_shard_access_scoped_to_domain_files_and_calls() {
    // The same call in a file outside the domain is out of scope.
    let src = "impl Agent { fn f(&mut self) { self.peer.set_alive(false); } }\n";
    assert!(lint_rust_file("crates/core/src/agent.rs", src).is_empty());
    // The method *definition* is not a call site (no leading dot).
    let def = "impl StorageServer { pub fn set_alive(&mut self, v: bool) {} }\n";
    assert!(lint_rust_file("crates/core/src/cluster/mod.rs", def).is_empty());
    // An allow with a reason suppresses a justified sequential-mode site.
    let allowed = "impl Cluster { fn f(&mut self) {\n\
                   // simlint: allow(cross-shard-access, reason = \"sequential mode\")\n\
                   self.servers[0].set_alive(false);\n} }\n";
    assert!(lint_rust_file("crates/core/src/cluster/mod.rs", allowed).is_empty());
}

// --------------------------------------------------------- float-fold-order

#[test]
fn float_fold_over_unordered_source_is_flagged() {
    // .sum() over a map view: no fixed fold order.
    let sum = "impl F { fn total(&self) -> f64 { self.by_class.values().sum() } }\n";
    let diags = lint_rust_file("crates/simkit/src/fluid.rs", sum);
    assert_eq!(rules_of(&diags), ["float-fold-order"], "{diags:?}");
    // += accumulation inside a for over an unordered iterator.
    let acc = "impl F { fn t(&mut self) { for f in self.scratch.iter() { self.acc += f.rate; } } }\n";
    let diags = lint_rust_file("crates/simkit/src/fluid.rs", acc);
    assert_eq!(rules_of(&diags), ["float-fold-order"], "{diags:?}");
    // -= is order-sensitive too.
    let sub = "impl F { fn t(&mut self) { for f in self.scratch.iter() { self.acc -= f.rate; } } }\n";
    assert_eq!(
        rules_of(&lint_rust_file("crates/simkit/src/fluid.rs", sub)),
        ["float-fold-order"]
    );
}

#[test]
fn float_fold_over_heap_order_is_flagged() {
    // The finish-tag heap's storage order depends on its push/pop history,
    // not on the flow set: folding over it is order-sensitive.
    let acc = "impl F { fn t(&mut self) { for &s in &self.heap { self.acc += self.tag[s]; } } }\n";
    let diags = lint_rust_file("crates/simkit/src/fluid.rs", acc);
    assert_eq!(rules_of(&diags), ["float-fold-order"], "{diags:?}");
    let sum = "impl F { fn t(&self) -> f64 { self.heap.iter().map(|&s| self.tag[s]).sum() } }\n";
    let diags = lint_rust_file("crates/simkit/src/fluid.rs", sum);
    assert_eq!(rules_of(&diags), ["float-fold-order"], "{diags:?}");
}

#[test]
fn slot_ordered_folds_and_ranges_are_clean() {
    let ok = "impl F {\n\
              fn a(&self) -> f64 { self.capped.iter().map(|f| f.rate).sum() }\n\
              fn b(&self) -> u64 { self.class_bytes.iter().sum() }\n\
              fn c(&mut self) { for k in 0..self.capped.len() { self.acc += self.rates[k]; } }\n\
              fn d(&mut self) { for w in &self.class_weight { self.acc += w; } }\n\
              }\n";
    assert!(lint_rust_file("crates/simkit/src/fluid.rs", ok).is_empty());
    // Outside the fluid solver the rule does not apply.
    let other = "fn t(m: &M) -> f64 { m.values().sum() }\n";
    assert!(lint_rust_file("crates/simkit/src/hist.rs", other).is_empty());
    // Test code is exempt (the oracle folds however it likes).
    let test = "#[cfg(test)]\nmod t { fn s(m: &M) -> f64 { m.values().sum() } }\n";
    assert!(lint_rust_file("crates/simkit/src/fluid.rs", test).is_empty());
}

#[test]
fn float_fold_allow_suppresses_with_reason() {
    let src = "// simlint: allow(float-fold-order, reason = \"order-insensitive: integer counts\")\n\
               fn t(m: &M) -> u64 { m.values().sum() }\n";
    assert!(lint_rust_file("crates/simkit/src/fluid.rs", src).is_empty());
}

// -------------------------------------------------------------- stale-allow

#[test]
fn allow_that_suppresses_nothing_is_flagged() {
    let src = "// simlint: allow(hash-order, reason = \"was needed once\")\n\
               pub fn f() {}\n";
    let diags = lint_rust_file("crates/simkit/src/engine.rs", src);
    assert_eq!(rules_of(&diags), ["stale-allow"], "{diags:?}");
    assert_eq!(diags[0].line, 1);
}

#[test]
fn used_allow_is_not_stale_and_unknown_rule_is_bad() {
    // A working allow produces no stale finding.
    let used = "// simlint: allow(hash-order, reason = \"scratch, never iterated\")\n\
                use std::collections::HashMap;\n";
    assert!(lint_rust_file("crates/simkit/src/engine.rs", used).is_empty());
    // An unknown rule is bad-allow (and cannot be stale: it never parsed).
    let unknown = "// simlint: allow(no-such-rule, reason = \"x\")\npub fn f() {}\n";
    let diags = lint_rust_file("crates/simkit/src/engine.rs", unknown);
    assert_eq!(rules_of(&diags), ["bad-allow"], "{diags:?}");
}

#[test]
fn one_allow_covering_two_findings_is_used_not_stale() {
    let src = "// simlint: allow(hash-order, reason = \"both on the next line\")\n\
               use std::collections::{HashMap, HashSet};\n";
    assert!(lint_rust_file("crates/simkit/src/engine.rs", src).is_empty());
}

// ------------------------------------------------------------ test-only-pub

/// Writes `files` (path, text) as a fresh fixture workspace named `name`
/// and returns its root.
fn fixture(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture paths have a parent"))
            .expect("create fixture dir");
        std::fs::write(path, text).expect("write fixture file");
    }
    root
}

/// The raw diagnostics of fixture workspace `name`.
fn scan_fixture(name: &str, files: &[(&str, &str)]) -> Vec<lintkit::Diagnostic> {
    lintkit::raw_scan(&fixture(name, files))
        .expect("scan fixture")
        .0
}

/// One library item, `lonely`, that the other fixture files may call.
const LONELY: (&str, &str) = ("crates/simkit/src/lonely.rs", "pub fn lonely() {}\n");

#[test]
fn test_only_pub_flags_a_fn_only_a_tests_dir_calls() {
    let diags = scan_fixture(
        "top-tests-dir",
        &[
            LONELY,
            (
                "crates/core/tests/t.rs",
                "#[test]\nfn t() { simkit::lonely(); }\n",
            ),
        ],
    );
    assert_eq!(rules_of(&diags), ["test-only-pub"], "{diags:?}");
    assert_eq!((diags[0].file.as_str(), diags[0].line), (LONELY.0, 1));
    assert!(
        diags[0].msg.ends_with("only tests use it: delete it"),
        "{}",
        diags[0].msg
    );
}

#[test]
fn test_only_pub_flags_a_fn_only_cfg_test_code_calls() {
    let user = "pub fn other() {}\n#[cfg(test)]\nmod tests { fn t() { simkit::lonely(); } }\n";
    let diags = scan_fixture(
        "top-cfg-test",
        &[
            LONELY,
            ("crates/core/src/user.rs", user),
            ("examples/e.rs", "fn main() { other(); }\n"),
        ],
    );
    assert_eq!(rules_of(&diags), ["test-only-pub"], "{diags:?}");
    assert_eq!(diags[0].file, LONELY.0);
}

#[test]
fn test_only_pub_says_drop_pub_when_only_its_own_file_uses_it() {
    let lib = "pub fn helper() {}\npub fn entry() { helper(); }\n";
    let diags = scan_fixture(
        "top-own-file",
        &[
            ("crates/core/src/lib.rs", lib),
            ("crates/bench/src/main.rs", "fn main() { entry(); }\n"),
        ],
    );
    assert_eq!(rules_of(&diags), ["test-only-pub"], "{diags:?}");
    assert_eq!(diags[0].line, 1, "only `helper` is flagged");
    assert!(
        diags[0]
            .msg
            .ends_with("only its own file uses it: drop `pub`"),
        "{}",
        diags[0].msg
    );
}

#[test]
fn test_only_pub_spares_callers_in_other_src_trees_and_perfbench() {
    for (name, caller) in [
        ("top-src-caller", "crates/bench/src/run.rs"),
        ("top-perfbench-caller", "perfbench/src/main.rs"),
    ] {
        let diags = scan_fixture(
            name,
            &[LONELY, (caller, "fn main() { simkit::lonely(); }\n")],
        );
        assert!(diags.is_empty(), "{caller}: {diags:?}");
    }
}

#[test]
fn test_only_pub_leaves_types_alone() {
    let lib = "pub struct Row;\npub enum Kind { A }\npub trait Probe {}\n";
    let diags = scan_fixture("top-types", &[("crates/core/src/lib.rs", lib)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn test_only_pub_allow_suppresses_and_an_unused_one_is_stale() {
    let allowed = "// simlint: allow(test-only-pub, reason = \"test-facing by intent\")\n\
                   pub fn lonely() {}\n";
    let diags = scan_fixture("top-allowed", &[("crates/simkit/src/lonely.rs", allowed)]);
    assert!(diags.is_empty(), "{diags:?}");
    let diags = scan_fixture(
        "top-stale-allow",
        &[
            ("crates/simkit/src/lonely.rs", allowed),
            ("crates/core/src/user.rs", "fn f() { simkit::lonely(); }\n"),
        ],
    );
    assert_eq!(rules_of(&diags), ["stale-allow"], "{diags:?}");
}

// --------------------------------------------------------- baseline ratchet

/// Scans fixture `name` (`LONELY`, one test-only-pub finding) under
/// `baseline`; returns whether it is clean and the rendered report.
fn scan_with_baseline(name: &str, baseline: &str) -> (bool, String) {
    let root = fixture(name, &[LONELY, ("crates/lintkit/baseline.txt", baseline)]);
    let report = lintkit::scan(&root).expect("scan fixture");
    (report.is_clean(), report.render())
}

#[test]
fn exact_baseline_is_clean() {
    let (clean, text) = scan_with_baseline(
        "baseline-exact",
        "test-only-pub crates/simkit/src/lonely.rs 1\n",
    );
    assert!(clean, "{text}");
}

#[test]
fn baseline_slack_fails_the_scan() {
    let (clean, text) = scan_with_baseline(
        "baseline-slack",
        "test-only-pub crates/simkit/src/lonely.rs 2\n",
    );
    assert!(
        !clean,
        "a count above the current violations must fail: {text}"
    );
    assert!(
        text.contains("re-run `cargo run -p lintkit -- --baseline-write`"),
        "{text}"
    );
}

#[test]
fn stale_baseline_entry_fails_the_scan() {
    let baseline = "lib-unwrap crates/simkit/src/gone.rs 1\n\
                    test-only-pub crates/simkit/src/lonely.rs 1\n";
    let (clean, text) = scan_with_baseline("baseline-stale", baseline);
    assert!(!clean, "an entry with no violations left must fail: {text}");
    assert!(
        text.contains("`lib-unwrap crates/simkit/src/gone.rs`"),
        "{text}"
    );
}

// ------------------------------------------------------- whole-repo self-test

#[test]
fn lexer_tokenizes_every_workspace_file() {
    let root = lintkit::workspace_root_from(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let mut rust_files = 0;
    for rel in lintkit::collect_files(&root).expect("walk workspace") {
        if !rel.ends_with(".rs") {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel)).expect("read source");
        let tokens = lintkit::lexer::lex(&src)
            .unwrap_or_else(|e| panic!("{rel}: lex error at line {}: {}", e.line, e.msg));
        assert!(!tokens.is_empty() || src.trim().is_empty(), "{rel}: no tokens");
        rust_files += 1;
    }
    assert!(rust_files > 100, "only {rust_files} .rs files found — walk broken?");
}

#[test]
fn workspace_scan_is_deterministic() {
    let root = lintkit::workspace_root_from(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let a = lintkit::scan(&root).expect("scan").render();
    let b = lintkit::scan(&root).expect("scan").render();
    assert_eq!(a, b);
}

#[test]
fn workspace_is_clean_under_the_shard_safety_rules() {
    // The three concurrency rules (plus stale-allow) hold across the whole
    // tree with no baseline entries: every legitimate exception carries an
    // inline allow-with-reason, so the raw stream must be empty for them.
    let root = lintkit::workspace_root_from(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let (diags, _) = lintkit::raw_scan(&root).expect("scan");
    let shard: Vec<_> = diags
        .iter()
        .filter(|d| {
            matches!(
                d.rule,
                "shared-mutable" | "cross-shard-access" | "float-fold-order" | "stale-allow"
            )
        })
        .collect();
    assert!(shard.is_empty(), "shard-safety violations crept in: {shard:?}");
}

// ------------------------------------------------------------------ properties

testkit::prop! {
    cases = 128;

    /// An arbitrary identifier-ish word is only flagged when it is exactly
    /// a forbidden ident in code position — never when it hides inside a
    /// string, comment, or raw string.
    fn forbidden_idents_only_fire_in_code(
        word in testkit::gen::choice(["HashMap", "HashSet", "Instant", "SystemTime", "map", "hash"]),
        ctx in testkit::gen::choice(["code", "line-comment", "block-comment", "string", "raw-string"]),
        pad in testkit::gen::bytes(0..12),
    ) {
        let pad: String = pad.iter().map(|b| char::from(b'a' + b % 26)).collect();
        let src = match ctx {
            "code" => format!("pub fn {pad}_f() {{ let _x = {word}::default(); }}\n"),
            "line-comment" => format!("// {pad} {word} {pad}\npub fn f() {{}}\n"),
            "block-comment" => format!("/* {pad} {word} */ pub fn f() {{}}\n"),
            "string" => format!("pub const S: &str = \"{pad} {word}\";\n"),
            "raw-string" => format!("pub const S: &str = r#\"{pad} {word}\"#;\n"),
            _ => unreachable!(),
        };
        let diags = lint_rust_file("crates/simkit/src/engine.rs", &src);
        let forbidden = matches!(word, "HashMap" | "HashSet" | "Instant" | "SystemTime");
        if ctx == "code" && forbidden {
            assert!(!diags.is_empty(), "{src}: should be flagged");
        } else {
            assert!(diags.is_empty(), "{src}: spurious {diags:?}");
        }
    }

    /// Wrapping a hash-order violation in `#[cfg(test)] mod t { ... }`
    /// always silences it, at any nesting depth. (wall-clock is deliberately
    /// NOT test-exempt — wall-clock reads make tests flaky too.)
    fn cfg_test_always_exempts(
        word in testkit::gen::choice(["HashMap", "HashSet"]),
        depth in testkit::gen::u8s(1..=3),
    ) {
        let mut inner = format!("use x::{word};\n");
        for i in 0..depth {
            inner = format!("mod m{i} {{\n{inner}}}\n");
        }
        let src = format!("#[cfg(test)]\n{inner}");
        let diags = lint_rust_file("crates/simkit/src/engine.rs", &src);
        assert!(diags.is_empty(), "{src}: {diags:?}");
    }
}
