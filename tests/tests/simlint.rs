//! Embeds the workspace-wide simlint pass (crates/lintkit) in this
//! crate's test suite: `cargo test -p <this crate>` fails on any
//! determinism or zero-dependency violation anywhere in the workspace.

#[test]
fn simlint_workspace_clean() {
    lintkit::assert_workspace_clean(env!("CARGO_MANIFEST_DIR"));
}

/// Every hub source file under `crates/core/src/cluster/` is governed by
/// both shard domains of `crates/lintkit/shard_owned.txt`: a new file in
/// the hub module cannot fall outside the cross-shard rule.
#[test]
fn every_cluster_file_is_governed_by_both_shard_domains() {
    let root = lintkit::workspace_root_from(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let cfg = lintkit::ShardConfig::builtin();
    let mut files: Vec<String> = std::fs::read_dir(root.join("crates/core/src/cluster"))
        .expect("read the cluster module")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".rs"))
        .map(|name| format!("crates/core/src/cluster/{name}"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "the cluster module has shrunk: {files:?}");
    for f in &files {
        let domains: Vec<&str> = cfg.domains_for(f).map(|d| d.name.as_str()).collect();
        assert_eq!(domains, ["store", "services"], "{f}");
    }
}

/// A chunk-store append from the request state machine is a cross-shard
/// mutation: the hub may only reach a server through a storage RPC.
#[test]
fn chunk_store_append_in_the_request_seam_is_flagged() {
    let src = "impl Cluster {\n\
                   fn sneaky(&mut self) { self.servers[0].append(key, block, stored); }\n\
               }\n";
    let diags = lintkit::lint_rust_file("crates/core/src/cluster/request.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "cross-shard-access");
    assert_eq!(diags[0].line, 2);
}
