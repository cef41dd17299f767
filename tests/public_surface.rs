//! Every `pub fn` of the four library crates (`cobra_graph`, `cobra_stats`, `cobra_core`,
//! `cobra_spectral`) must have a caller outside its own file: the experiments, the `repro`
//! binary and its serve mode, the facade, an example, perfbench, or another library crate.
//! This test reads the non-test code of every `.rs` file under `crates/*/src`, `src`,
//! `examples` and `perfbench/src` and fails on a `pub fn` whose name no other such file
//! mentions. Comments, string literals and items under `#[cfg(test)]` do not count as
//! mentions. The match is by name, so it can miss a dead method whose name another item
//! shares; it cannot flag a live one.
//!
//! A function that only tests call stays public when it is the observation hook or oracle
//! of a test of live code; those are listed in [`KEPT`], each with the test that needs it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose public functions must earn their place.
const LIBRARIES: [&str; 4] = ["graph", "stats", "core", "spectral"];

/// `(file, name, reason)`: public functions with no caller outside tests, kept on purpose.
const KEPT: [(&str, &str, &str); 16] = [
    ("crates/core/src/defense.rs", "is_inert", "checks the reseed policy's idle rounds in tests"),
    ("crates/core/src/growth.rs", "bound_holds", "Lemma 1 check of tests/invariants.rs"),
    ("crates/core/src/growth.rs", "sampled_expected_next_size", "Monte-Carlo oracle of Lemma 1"),
    ("crates/core/src/sim.rs", "run_spec", "the README and crate-doc quick start"),
    ("crates/core/src/sim.rs", "first_visit", "observer state read by tests/churn_observers.rs"),
    ("crates/core/src/spec.rs", "with_start", "start vertex of the equivalence suites' specs"),
    ("crates/graph/src/bitset.rs", "to_indicator", "oracle for tests/frontier_equivalence.rs"),
    ("crates/graph/src/csr.rs", "has_edge", "edge check of the generator and walk tests"),
    ("crates/graph/src/io.rs", "parse_edge_list", "strict parser under graph/tests/proptests.rs"),
    ("crates/graph/src/ops.rs", "bfs_distances", "BFS under graph/tests/proptests.rs"),
    ("crates/graph/src/ops.rs", "connected_components", "oracle for `is_connected` proptests"),
    ("crates/graph/src/ops.rs", "diameter", "oracle for the generators' known diameters"),
    ("crates/spectral/src/conductance.rs", "cut_conductance", "oracle for the sweep-cut tests"),
    ("crates/spectral/src/conductance.rs", "cheeger_bounds", "bounds the sweep-cut tests check"),
    ("crates/spectral/src/power.rs", "second_eigenvalue_abs", "cross-check of the Lanczos path"),
    ("crates/stats/src/table.rs", "num_rows", "row counts in the experiments' unit tests"),
];

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut entries: Vec<_> =
        fs::read_dir(dir).expect("source dir is readable").map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// `source` with comments and string and char literals blanked out.
fn strip_comments_and_literals(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < chars.len() {
        let rest = &chars[i..];
        let prev_is_ident = i > 0 && is_ident(chars[i - 1]);
        if rest.starts_with(&['/', '/']) {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if rest.starts_with(&['/', '*']) {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i..].starts_with(&['/', '*']) {
                    depth += 1;
                    i += 2;
                } else if chars[i..].starts_with(&['*', '/']) {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            out.push(' ');
        } else if let Some(hashes) = raw_string_hashes(rest).filter(|_| !prev_is_ident) {
            // r"…", r#"…"#, br"…": skip to the quote followed by the same number of hashes.
            i += rest.iter().position(|&c| c == '"').unwrap() + 1;
            while i < chars.len()
                && !(chars[i] == '"'
                    && chars[i + 1..].iter().take_while(|&&c| c == '#').count() >= hashes)
            {
                i += 1;
            }
            i += 1 + hashes;
            out.push(' ');
        } else if chars[i] == '"' {
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
            out.push(' ');
        } else if chars[i] == '\'' && rest.get(1) == Some(&'\\') {
            // An escaped char literal: '\n', '\'', '\u{…}'.
            i += 3;
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            i += 1;
            out.push(' ');
        } else if chars[i] == '\'' && rest.get(2) == Some(&'\'') {
            i += 3;
            out.push(' ');
        } else {
            // Code, including lifetimes and labels (`'a`, which have no closing quote).
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

/// The number of `#`s of a raw string literal starting at `rest`, if one starts there.
fn raw_string_hashes(rest: &[char]) -> Option<usize> {
    let after_b = if rest.first() == Some(&'b') { &rest[1..] } else { rest };
    if after_b.first() != Some(&'r') {
        return None;
    }
    let hashes = after_b[1..].iter().take_while(|&&c| c == '#').count();
    (after_b.get(1 + hashes) == Some(&'"')).then_some(hashes)
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `code` (already stripped) without the items marked `#[cfg(test)]`: the attribute and the
/// item after it, up to its closing brace or semicolon.
fn strip_test_items(code: &str) -> String {
    const MARK: &str = "#[cfg(test)]";
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(at) = rest.find(MARK) {
        out.push_str(&rest[..at]);
        let item = &rest[at + MARK.len()..];
        let mut depth = 0usize;
        let mut end = item.len();
        for (offset, c) in item.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = offset + 1;
                        break;
                    }
                }
                ';' if depth == 0 => {
                    end = offset + 1;
                    break;
                }
                _ => {}
            }
        }
        rest = &item[end..];
    }
    out.push_str(rest);
    out
}

/// The non-test code of a source file.
fn non_test_code(source: &str) -> String {
    strip_test_items(&strip_comments_and_literals(source))
}

/// The identifiers of `code`.
fn identifiers(code: &str) -> Vec<&str> {
    code.split(|c: char| !is_ident(c)).filter(|word| !word.is_empty()).collect()
}

/// The names of the `pub fn`s (`pub const fn` and the like included, `pub(crate) fn` not)
/// declared in `code`.
fn pub_fn_names(code: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, _) in code.match_indices("pub") {
        let before = code[..at].chars().next_back();
        let after = &code[at + 3..];
        if before.is_some_and(is_ident) || !after.starts_with(char::is_whitespace) {
            continue;
        }
        let mut words = identifiers(after).into_iter();
        let mut word = words.next();
        while matches!(word, Some("const" | "unsafe" | "async" | "extern")) {
            word = words.next();
        }
        if word == Some("fn") {
            names.extend(words.next().map(str::to_string));
        }
    }
    names
}

/// Repository-relative path with `/` separators.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/")
}

#[test]
fn every_library_pub_fn_has_a_caller_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            files.extend(rust_files(&src));
        }
    }
    for dir in ["src", "examples", "perfbench/src"] {
        files.extend(rust_files(&root.join(dir)));
    }
    files.sort();
    let code: Vec<(String, String)> = files
        .iter()
        .map(|path| (relative(root, path), non_test_code(&fs::read_to_string(path).unwrap())))
        .collect();
    let words: Vec<BTreeSet<&str>> =
        code.iter().map(|(_, text)| identifiers(text).into_iter().collect()).collect();

    let mut declared = 0;
    let mut uncalled = Vec::new();
    for (index, (file, text)) in code.iter().enumerate() {
        if !LIBRARIES.iter().any(|lib| file.starts_with(&format!("crates/{lib}/src/"))) {
            continue;
        }
        for name in pub_fn_names(text) {
            declared += 1;
            let called = words.iter().enumerate().any(|(j, w)| j != index && w.contains(&*name));
            if !called {
                uncalled.push((file.clone(), name));
            }
        }
    }
    assert!(declared > 200, "the scan must see the libraries' pub fns, saw {declared}");

    let kept: BTreeSet<(String, String)> =
        KEPT.iter().map(|&(file, name, _)| (file.to_string(), name.to_string())).collect();
    let unlisted: Vec<_> = uncalled.iter().filter(|entry| !kept.contains(*entry)).collect();
    assert!(
        unlisted.is_empty(),
        "pub fns with no caller outside their file: {unlisted:?}; delete them, give them a \
         caller, or list them in KEPT with the test that needs them"
    );
    let uncalled: BTreeSet<_> = uncalled.into_iter().collect();
    let stale: Vec<_> = kept.iter().filter(|entry| !uncalled.contains(*entry)).collect();
    assert!(stale.is_empty(), "KEPT entries that now have a caller or are gone: {stale:?}");
}

#[test]
fn the_matcher_ignores_comments_strings_and_test_code() {
    let source = r##"
        //! Module docs name `ghost_in_doc`.
        use std::fmt;

        /// Calls `ghost_in_doc()` in a doc comment.
        pub fn live(x: &'static str) -> char {
            // ghost_in_line_comment();
            /* ghost_in_block /* nested */ comment */
            let _ = "ghost_in_string \" still a string";
            let _ = r#"ghost_in_raw "string""#;
            let _ = b"ghost_in_bytes";
            let _ = ('"', '\'', '\u{1F600}');
            real_call(x);
            'q'
        }

        pub(crate) fn crate_only() {}
        pub const fn constant() -> u32 { 1 }
        pub unsafe fn unchecked() {}

        #[cfg(test)]
        mod tests {
            use super::*;
            pub fn test_helper() {}
            #[test]
            fn t() { ghost_in_test(); }
        }

        #[cfg(test)]
        fn test_only_fn() { ghost_in_test_fn(); }

        pub fn after_tests<'a>(s: &'a str) -> &'a str { s }
    "##;
    let code = non_test_code(source);
    let words: BTreeSet<&str> = identifiers(&code).into_iter().collect();
    for ghost in [
        "ghost_in_doc",
        "ghost_in_line_comment",
        "ghost_in_block",
        "nested",
        "ghost_in_string",
        "still",
        "ghost_in_raw",
        "ghost_in_bytes",
        "ghost_in_test",
        "test_helper",
        "ghost_in_test_fn",
        "test_only_fn",
    ] {
        assert!(!words.contains(ghost), "{ghost} must not count as a mention");
    }
    for word in ["real_call", "live", "after_tests", "fmt"] {
        assert!(words.contains(word), "{word} is code and must count");
    }
    assert_eq!(pub_fn_names(&code), ["live", "constant", "unchecked", "after_tests"]);
}
