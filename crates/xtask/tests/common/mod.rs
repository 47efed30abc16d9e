//! Helpers shared by the xtask integration tests: scratch fixture trees
//! under `CARGO_TARGET_TMPDIR`, and running the built `xtask lint` against
//! a tree.

// Each test binary compiles its own copy and uses only some helpers.
#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh fixture tree named `name`, with an empty `crates/demo/src`.
pub fn fixture_root(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale fixture");
    }
    fs::create_dir_all(root.join("crates/demo/src")).expect("create fixture tree");
    root
}

/// Write `contents` to `root/rel`, creating parent directories.
pub fn write(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).expect("fixture dirs");
    }
    fs::write(path, contents).expect("write fixture file");
}

/// Run `xtask lint` with `extra` arguments over the tree at `root`;
/// returns whether it passed and its standard output.
pub fn run_lint(root: &Path, extra: &[&str]) -> (bool, String) {
    // The binary resolves the workspace root as CARGO_MANIFEST_DIR/../..,
    // so point the manifest dir at a crates/xtask inside the tree.
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .args(extra)
        .env("CARGO_MANIFEST_DIR", root.join("crates/xtask"))
        .output()
        .expect("run xtask lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}
