//! The public API is what non-test code calls.
//!
//! A census of every `pub fn|struct|enum|const|static|type|trait` in the
//! non-test code of `crates/*/src`. Non-test means CI's rule (a file is cut
//! at `^mod tests {` and `tests.rs` files are skipped), and an item under
//! `#[cfg(test)]` is test code too. Each name is matched over the non-test,
//! non-comment code of `crates/*/src`, `src`, `examples` and
//! `benchmark/src`, leaving out definitions, `use` lines, string literals
//! and a type's mentions inside its own impl blocks. A pub method (a `fn`
//! in an `impl` block) is referenced only in call or path form
//! (`.name(`, `::name`), so a field or local of the same name does not
//! hide it; free fns, types and consts match as a word. A pub item with
//! no such reference has only test callers or none: it goes, it moves
//! under `#[cfg(test)]`, or `pub_census.keep` says why it stays.
//!
//! The test fails when an unreferenced item is missing from the keep-list,
//! when a kept item has gained a non-test caller, and when a kept item no
//! longer exists. A name match hides an item behind any namesake of its
//! form, so the count is a floor; pub fields and trait methods are not
//! counted.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// `<file> <name> <reason>` a line; `#` starts a comment line.
const KEEP: &str = include_str!("pub_census.keep");

/// The reasons a pub item with no non-test caller may stay.
const REASONS: [&str; 3] = ["referee:", "reserved:", "baseline:"];

/// The keep-list may only shrink: lower this when an entry goes.
const KEEP_CEILING: usize = 16;

/// Pub items with no non-test reference before the census landed.
const BEFORE: usize = 68;

/// Item kinds the census collects after `pub`.
const KINDS: [&str; 7] = ["fn", "struct", "enum", "const", "static", "type", "trait"];

/// Keywords whose next identifier is a definition, not a reference.
const DEFINERS: [&str; 9] = [
    "fn", "struct", "enum", "const", "static", "type", "trait", "mod", "union",
];

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// `src` with comments and string / char literals blanked to spaces
/// (newlines kept). Lifetimes stay.
fn code_only(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let blank = |out: &mut String, ch: char| out.push(if ch == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < c.len() {
        let ident_before = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_');
        if c[i] == '/' && c.get(i + 1) == Some(&'/') {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if c[i] == '/' && c.get(i + 1) == Some(&'*') {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, c[i]);
                    i += 1;
                }
            }
        } else if c[i] == '"' {
            // A plain (or byte) string: up to the next unescaped quote.
            i += 1;
            while i < c.len() && c[i] != '"' {
                if c[i] == '\\' {
                    i += 1;
                }
                if let Some(&ch) = c.get(i) {
                    blank(&mut out, ch);
                }
                i += 1;
            }
            i += 1;
        } else if !ident_before && (c[i] == 'r' || (c[i] == 'b' && c.get(i + 1) == Some(&'r'))) {
            // Maybe a raw string: `r#*"` ... `"#*`.
            let mut j = i + if c[i] == 'b' { 2 } else { 1 };
            let hashes = c[j..].iter().take_while(|&&ch| ch == '#').count();
            j += hashes;
            if c.get(j) != Some(&'"') {
                out.push(c[i]);
                i += 1;
                continue;
            }
            i = j + 1;
            while i < c.len() {
                if c[i] == '"' && c[i + 1..].iter().take_while(|&&ch| ch == '#').count() >= hashes {
                    i += 1 + hashes;
                    break;
                }
                blank(&mut out, c[i]);
                i += 1;
            }
        } else if c[i] == '\'' && (c.get(i + 1) == Some(&'\\') || c.get(i + 2) == Some(&'\'')) {
            // A char literal, not a lifetime.
            i += 2;
            while i < c.len() && c[i] != '\'' {
                i += 1;
            }
            i += 1;
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// The tokens of a file's non-test code: identifiers and single
/// punctuation characters (numbers dropped). The file is cut at
/// `^mod tests {`, and every item, field or statement under
/// `#[cfg(test)]` is left out.
fn non_test_tokens(path: &Path) -> Vec<String> {
    let src = fs::read_to_string(path).expect("readable source");
    let cut = match src.find("\nmod tests {") {
        Some(at) => &src[..at],
        None if src.starts_with("mod tests {") => "",
        None => &src,
    };
    let code = code_only(cut);
    let mut tokens = Vec::new();
    let mut chars = code.char_indices().peekable();
    while let Some((at, ch)) = chars.next() {
        if ch.is_alphanumeric() || ch == '_' {
            let mut end = at + ch.len_utf8();
            while let Some(&(next, c)) = chars.peek() {
                if !(c.is_alphanumeric() || c == '_') {
                    break;
                }
                end = next + c.len_utf8();
                chars.next();
            }
            if !ch.is_ascii_digit() {
                tokens.push(code[at..end].to_string());
            }
        } else if !ch.is_whitespace() {
            tokens.push(ch.to_string());
        }
    }
    strip_cfg_test(tokens)
}

/// `tokens` without what each `#[cfg(test)]` gates: the attribute, any
/// attributes after it, and the item up to its closing `}` or a `;` / `,`
/// at its own depth.
fn strip_cfg_test(tokens: Vec<String>) -> Vec<String> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i..]
            .iter()
            .map(String::as_str)
            .take(CFG_TEST.len())
            .eq(CFG_TEST)
        {
            out.push(tokens[i].clone());
            i += 1;
            continue;
        }
        i += CFG_TEST.len();
        let mut depth = 0i32;
        while i < tokens.len() {
            match tokens[i].as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => break,
                ")" | "]" => depth -= 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 && tokens.get(i + 1).is_none_or(|t| t != ";") {
                        i += 1;
                        break;
                    }
                }
                ";" | "," if depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// The pub items a token stream defines, by name, each with whether it is
/// a method (a `fn` inside an `impl` block).
fn pub_items(tokens: &[String]) -> Vec<(String, bool)> {
    let mut names = Vec::new();
    // The brace depth each open impl block's body opened at.
    let mut impls: Vec<usize> = Vec::new();
    let mut depth = 0;
    for (i, token) in tokens.iter().enumerate() {
        match token.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if impls.last() == Some(&depth) {
                    impls.pop();
                }
            }
            "impl" if opens_impl(tokens, i) => impls.push(depth),
            _ => {}
        }
        if token != "pub" {
            continue;
        }
        let mut j = i + 1;
        while tokens
            .get(j)
            .is_some_and(|t| matches!(t.as_str(), "async" | "unsafe" | "extern"))
            || (tokens.get(j).is_some_and(|t| t == "const")
                && tokens
                    .get(j + 1)
                    .is_some_and(|t| matches!(t.as_str(), "fn" | "unsafe" | "async")))
        {
            j += 1;
        }
        let (Some(kind), Some(name)) = (tokens.get(j), tokens.get(j + 1)) else {
            continue;
        };
        if KINDS.contains(&kind.as_str()) && is_ident(name) {
            names.push((name.clone(), kind == "fn" && !impls.is_empty()));
        }
    }
    names
}

/// Whether the `impl` at `tokens[at]` starts an impl block (not `impl
/// Trait` in a type).
fn opens_impl(tokens: &[String], at: usize) -> bool {
    at == 0 || matches!(tokens[at - 1].as_str(), "}" | ";" | "]" | "{" | "unsafe")
}

/// Adds to `refs` each identifier in `tokens` that is not a definition's
/// name, not inside a `use` declaration, and not a type's own name in its
/// own `impl` block (header or body): a type only its impls mention has
/// no caller. Adds to `calls` each such identifier in call or path form:
/// after `.` and before `(` or a turbofish, or after `::`.
fn count_references(tokens: &[String], refs: &mut HashSet<String>, calls: &mut HashSet<String>) {
    // The self type of each open impl block, with the brace depth its
    // body opened at.
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut depth = 0;
    let mut i = 0;
    while i < tokens.len() {
        let token = tokens[i].as_str();
        match token {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if impls.last().is_some_and(|&(_, open)| open == depth) {
                    impls.pop();
                }
            }
            "use" => {
                while i < tokens.len() && tokens[i] != ";" {
                    i += 1;
                }
            }
            "impl" if opens_impl(tokens, i) => {
                let (self_ty, body) = impl_header(tokens, i);
                for t in &tokens[i + 1..body] {
                    if is_ident(t) && *t != self_ty {
                        refs.insert(t.clone());
                    }
                }
                impls.push((self_ty, depth));
                i = body;
                continue;
            }
            _ if is_ident(token) => {
                let defined = i > 0
                    && DEFINERS.contains(&tokens[i - 1].as_str())
                    && (i < 2 || !matches!(tokens[i - 2].as_str(), "*" | "'"));
                let own_impl = impls.iter().any(|(self_ty, _)| self_ty == token);
                if !defined && !own_impl {
                    refs.insert(token.to_string());
                    let path = i >= 2 && tokens[i - 2] == ":" && tokens[i - 1] == ":";
                    let method_call = i >= 1
                        && tokens[i - 1] == "."
                        && tokens
                            .get(i + 1)
                            .is_some_and(|t| matches!(t.as_str(), "(" | ":"));
                    if path || method_call {
                        calls.insert(token.to_string());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// The self type of the impl header at `tokens[at]` and the index of its
/// body's `{`: the last path segment after `for`, or after the impl's own
/// generics when there is no `for`.
fn impl_header(tokens: &[String], at: usize) -> (String, usize) {
    let body = at
        + tokens[at..]
            .iter()
            .position(|t| t == "{")
            .expect("impl body");
    let header = &tokens[at + 1..body];
    let mut start = match header.iter().position(|t| t == "for") {
        Some(f) => f + 1,
        None => 0,
    };
    if start == 0 && header.first().is_some_and(|t| t == "<") {
        let mut angle = 0;
        for (k, t) in header.iter().enumerate() {
            match t.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            if angle == 0 {
                start = k + 1;
                break;
            }
        }
    }
    let mut self_ty = String::new();
    for t in &header[start..] {
        match t.as_str() {
            "<" | "where" => break,
            t if is_ident(t) && t != "dyn" => self_ty = t.to_string(),
            _ => {}
        }
    }
    (self_ty, body)
}

fn is_ident(token: &str) -> bool {
    token.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

fn relative(path: &Path) -> String {
    path.strip_prefix(ROOT)
        .expect("under the workspace")
        .display()
        .to_string()
}

/// `crates/*/src`, each file's tokens, `tests.rs` files skipped.
fn crate_sources() -> Vec<(PathBuf, Vec<String>)> {
    let mut crates: Vec<PathBuf> = fs::read_dir(Path::new(ROOT).join("crates"))
        .expect("crates directory")
        .map(|entry| entry.expect("directory entry").path().join("src"))
        .collect();
    crates.sort();
    crates
        .iter()
        .flat_map(|dir| rust_files(dir))
        .filter(|path| path.file_name().is_some_and(|name| name != "tests.rs"))
        .map(|path| {
            let tokens = non_test_tokens(&path);
            (path, tokens)
        })
        .collect()
}

#[test]
fn every_pub_item_has_a_non_test_caller_or_a_kept_reason() {
    let sources = crate_sources();
    // Each item with whether every definition of its name in its file is
    // a method.
    let mut items: BTreeMap<(String, String), bool> = BTreeMap::new();
    let (mut refs, mut calls) = (HashSet::new(), HashSet::new());
    for (path, tokens) in &sources {
        for (name, method) in pub_items(tokens) {
            *items.entry((relative(path), name)).or_insert(true) &= method;
        }
        count_references(tokens, &mut refs, &mut calls);
    }
    for dir in ["src", "examples", "benchmark/src"] {
        for path in rust_files(&Path::new(ROOT).join(dir)) {
            count_references(&non_test_tokens(&path), &mut refs, &mut calls);
        }
    }
    let unreferenced: BTreeSet<(String, String)> = items
        .iter()
        .filter(|&((_, name), &method)| {
            let seen = if method { &calls } else { &refs };
            !seen.contains(name)
        })
        .map(|(key, _)| key.clone())
        .collect();

    let mut kept = BTreeSet::new();
    let mut failures = Vec::new();
    for line in KEEP.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.splitn(3, ' ');
        let (Some(file), Some(name), Some(reason)) = (fields.next(), fields.next(), fields.next())
        else {
            failures.push(format!("keep-list line without a reason: {line}"));
            continue;
        };
        if !REASONS
            .iter()
            .any(|prefix| reason.trim_start().starts_with(prefix))
        {
            failures.push(format!(
                "{file} {name}: the reason must start with one of {REASONS:?}"
            ));
        }
        let key = (file.to_string(), name.to_string());
        if !items.contains_key(&key) {
            failures.push(format!(
                "{file} {name} is kept but no longer exists: strike it"
            ));
        } else if !unreferenced.contains(&key) {
            failures.push(format!(
                "{file} {name} is kept but now has a non-test caller: strike it"
            ));
        }
        kept.insert(key);
    }
    for (file, name) in unreferenced.difference(&kept) {
        failures.push(format!(
            "{file} {name} has no non-test reference: delete it, put it under #[cfg(test)], \
             or keep it with a reason"
        ));
    }

    println!(
        "pub census: {} pub items in non-test crates/*/src; {} with no non-test reference \
         ({BEFORE} before the census), {} of them kept",
        items.len(),
        unreferenced.len(),
        kept.len()
    );
    assert!(
        failures.is_empty(),
        "pub census:\n  {}",
        failures.join("\n  ")
    );
    assert!(
        kept.len() <= KEEP_CEILING,
        "the keep-list grew to {} entries (ceiling {KEEP_CEILING}); it may only shrink",
        kept.len()
    );
}
