//! Smoke test: every runnable example must build and exit successfully.
//!
//! Examples are the repo's executable documentation (the paper's §2 `rmin`
//! walk-through, the §6 array workloads, the NFS-flavored service, and the
//! specialization report); a PR that breaks one should fail `cargo test`,
//! not wait for a human to try `cargo run --example`.

use std::process::Command;

#[test]
fn all_examples_run_cleanly() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    // Every `examples/*.rs`, not a hand-kept list: a new example is
    // covered the day it lands.
    let mut names: Vec<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples"))
            .expect("examples directory")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
    names.sort();
    assert!(!names.is_empty(), "no examples found");
    for name in &names {
        let out = Command::new(&cargo)
            .args(["run", "--quiet", "--example", name])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
        assert!(
            out.status.success(),
            "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
    }
}
