//! Every file the docs cite exists: a backticked repo path in `README.md`
//! or in a crate's rustdoc (`///`, `//!` under `crates/*/src`) must name a
//! file or directory of this repository. A path counts as one when its
//! first component is an entry of the repository root (`tests/…`,
//! `crates/…`, `benchmark/…`); `:line` and `::item` suffixes are dropped,
//! `{a,b}` alternatives are each checked, and a path with a `*` is a
//! pattern, not a claim. A crate's rustdoc may also cite a path inside
//! its own crate (`tests/paper_tables.golden` in `specrpc-bench`).
//!
//! Every row name they cite has a producer: a backticked name of the
//! `a/b/c` form in `README.md` or a crate `lib.rs`'s rustdoc must be one
//! that `tests/trace_identity.rs` pins, `crates/bench/tests/paper_tables.golden`
//! holds, `crates/bench/tests/paper_ratio.rs` prints or
//! `benchmark/README.md`'s contract names. A producer's `{…}` segment
//! stands for any value (`{a,b}` for either), and a cited name ending in
//! `/*` for the rows under it.

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

/// The files whose text produces every row name the docs may cite.
const ROW_PRODUCERS: [&str; 4] = [
    "tests/trace_identity.rs",
    "crates/bench/tests/paper_tables.golden",
    "crates/bench/tests/paper_ratio.rs",
    "benchmark/README.md",
];

/// Whether `s` has the form of a row name: two or more `/`-separated
/// segments — lowercase words and numbers, `{…}` placeholders or `*` —
/// the first a word.
fn row_form(s: &str) -> bool {
    let segment = |seg: &str| {
        seg == "*"
            || (seg.starts_with('{') && seg.ends_with('}'))
            || (!seg.is_empty()
                && (seg.chars()).all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
    };
    let word = s.starts_with(|c: char| c.is_ascii_lowercase());
    s.contains('/') && word && s.split('/').all(segment)
}

/// Every row name `text` holds: each maximal run of name characters (a
/// `{…}` group taken whole) of the row form.
fn row_names(text: &str) -> Vec<String> {
    let (mut names, mut token) = (Vec::new(), String::new());
    // A trailing separator ends the last run.
    let mut chars = text.chars().chain([' ']);
    while let Some(c) = chars.next() {
        match c {
            '{' => {
                token.push('{');
                token.extend(chars.by_ref().take_while(|&c| c != '}'));
                token.push('}');
            }
            c if c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '*') => token.push(c),
            _ => {
                if row_form(&token) {
                    names.push(token.clone());
                }
                token.clear();
            }
        }
    }
    names
}

/// What a `{…}` segment holds.
fn placeholder(segment: &str) -> Option<&str> {
    segment.strip_prefix('{')?.strip_suffix('}')
}

/// Whether segment `cited` names a value of producer segment `made`.
fn segment_matches(cited: &str, made: &str) -> bool {
    match (placeholder(cited), placeholder(made)) {
        (Some(_), _) => true,
        (None, Some(alts)) if alts.contains(',') => alts.split(',').any(|a| a == cited),
        (None, Some(_)) => true,
        (None, None) => cited == made,
    }
}

/// Whether cited row name `row` is one `made` produces, or — ending in
/// `/*` — has rows under it there.
fn resolves(row: &str, made: &str) -> bool {
    let (row, made): (Vec<&str>, Vec<&str>) = (row.split('/').collect(), made.split('/').collect());
    let (fixed, under) = match row.split_last() {
        Some((&"*", fixed)) => (fixed, true),
        _ => (&row[..], false),
    };
    let long_enough = if under {
        made.len() > fixed.len()
    } else {
        made.len() == fixed.len()
    };
    long_enough && fixed.iter().zip(&made).all(|(c, m)| segment_matches(c, m))
}

/// The row names `text` cites in backticks, `{a,b}` alternatives each; a
/// span whose first component is an entry of the repository root is a
/// path, not a row name.
fn cited_rows(text: &str, root: &Path) -> Vec<String> {
    let spans = text.split('`').skip(1).step_by(2);
    let rows = spans.filter(|s| row_form(s) && !root.join(s.split('/').next().unwrap()).exists());
    rows.flat_map(alternatives).collect()
}

/// The row names `text` cites that no name of `produced` resolves.
fn unresolved(text: &str, produced: &[String], root: &Path) -> Vec<String> {
    let rows = cited_rows(text, root).into_iter();
    rows.filter(|row| !produced.iter().any(|made| resolves(row, made)))
        .collect()
}

/// The row names the producers hold.
fn produced(root: &Path) -> Vec<String> {
    let texts = ROW_PRODUCERS
        .iter()
        .map(|p| fs::read_to_string(root.join(p)).expect("read"));
    texts.flat_map(|text| row_names(&text)).collect()
}

#[test]
fn every_cited_row_name_has_a_producer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let produced = produced(root);
    let readme = fs::read_to_string(root.join("README.md")).expect("read README.md");
    let mut docs = vec![("README.md".to_string(), readme)];
    for krate in fs::read_dir(root.join("crates")).expect("read crates") {
        let lib = krate.expect("crate entry").path().join("src/lib.rs");
        let name = lib.strip_prefix(root).unwrap().display().to_string();
        docs.push((name, rustdoc(&lib)));
    }
    let cited: usize = (docs.iter())
        .map(|(_, text)| cited_rows(text, root).len())
        .sum();
    assert!(
        cited >= 5,
        "only {cited} cited row names found: the scan is broken"
    );
    let missing: Vec<String> = (docs.iter())
        .flat_map(|(file, text)| {
            unresolved(text, &produced, root)
                .into_iter()
                .map(move |r| format!("{file}: `{r}`"))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "docs cite rows nothing produces:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn a_row_name_resolves_only_to_a_produced_one() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let produced = produced(root);
    for made in [
        "scale/p99/8",
        "cold/{n}",
        "marshal/specialized/{n}",
        "marshal/residual/{n}",
        "roundtrip/generic/{n}",
    ] {
        assert!(produced.iter().any(|p| p == made), "{made} is not produced");
    }
    let text = "`batched/16/2000`, `batched/*`, `marshal/{generic,residual,specialized}/2000`, \
                `nfs/*`, `crates/core`, `ceil(len/mtu)`, `marshal/fused/20`, \
                `batched/16`, `nosuch/*` and `scale/p99`";
    assert_eq!(
        unresolved(text, &produced, root),
        ["marshal/fused/20", "batched/16", "nosuch/*", "scale/p99"]
    );
}
