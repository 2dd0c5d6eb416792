//! Every file the docs cite exists: a backticked repo path in `README.md`
//! or in a crate's rustdoc (`///`, `//!` under `crates/*/src`) must name a
//! file or directory of this repository. A path counts as one when its
//! first component is an entry of the repository root (`tests/…`,
//! `crates/…`, `benchmark/…`); `:line` and `::item` suffixes are dropped,
//! `{a,b}` alternatives are each checked, and a path with a `*` is a
//! pattern, not a claim. A crate's rustdoc may also cite a path inside
//! its own crate (`tests/paper_tables.golden` in `specrpc-bench`).

use std::fs;
use std::path::{Path, PathBuf};

/// The text of every `///` and `//!` line of `file`.
fn rustdoc(file: &Path) -> String {
    let text = fs::read_to_string(file).expect("read source");
    let doc = text.lines().map(str::trim_start);
    let doc = doc.filter(|l| l.starts_with("///") || l.starts_with("//!"));
    doc.collect::<Vec<_>>().join("\n")
}

/// Every `.rs` file under `dir`.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `path` with each `{a,b}` group expanded.
fn alternatives(path: &str) -> Vec<String> {
    let Some(open) = path.find('{') else {
        return vec![path.to_string()];
    };
    let close = open + path[open..].find('}').expect("closed brace");
    let (head, tail) = (&path[..open], &path[close + 1..]);
    path[open + 1..close]
        .split(',')
        .flat_map(|alt| alternatives(&format!("{head}{alt}{tail}")))
        .collect()
}

/// The repo paths `text` cites in backticks, suffixes dropped.
fn cited(text: &str, root: &Path) -> Vec<String> {
    let spans = text.split('`').skip(1).step_by(2);
    let paths = spans.filter(|s| !s.contains(char::is_whitespace) && !s.contains('*'));
    let paths = paths.filter_map(|s| {
        let (first, _) = s.split_once('/')?;
        root.join(first).exists().then_some(s)
    });
    let bare = paths.map(|s| {
        let s = s.split("::").next().unwrap_or(s);
        let line = s.find(':').unwrap_or(s.len());
        s[..line].to_string()
    });
    bare.flat_map(|s| alternatives(&s)).collect()
}

#[test]
fn every_cited_repo_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = fs::read_to_string(root.join("README.md")).expect("read README.md");
    // (citing file, directory it may also be relative to, text)
    let mut docs = vec![("README.md".to_string(), root.to_path_buf(), readme)];
    for krate in fs::read_dir(root.join("crates")).expect("read crates") {
        let krate = krate.expect("crate entry").path();
        let mut files = Vec::new();
        sources(&krate.join("src"), &mut files);
        for file in files {
            let name = file.strip_prefix(root).unwrap().display().to_string();
            docs.push((name, krate.clone(), rustdoc(&file)));
        }
    }
    let mut missing = Vec::new();
    let mut checked = 0;
    for (file, base, text) in &docs {
        for path in cited(text, root) {
            checked += 1;
            if !root.join(&path).exists() && !base.join(&path).exists() {
                missing.push(format!("{file}: `{path}`"));
            }
        }
    }
    assert!(
        checked > 50,
        "only {checked} cited paths found: the scan is broken"
    );
    assert!(
        missing.is_empty(),
        "docs cite paths that do not exist:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn a_cited_path_is_found_whatever_its_suffix() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = "see `tests/faults.rs::exact`, `crates/netsim/src/net.rs:2054`, \
                `tests/{batch,chaos}.rs`, `crates/*/src`, `bufpool.rs` and `a b/c`";
    assert_eq!(
        cited(text, root),
        [
            "tests/faults.rs",
            "crates/netsim/src/net.rs",
            "tests/batch.rs",
            "tests/chaos.rs"
        ]
    );
    assert_eq!(
        cited("`tests/no_such_case.rs`", root),
        ["tests/no_such_case.rs"]
    );
    assert!(!root.join("tests/no_such_case.rs").exists());
}
