//! The crate is `#![deny(unsafe_code)]` with one exception: the software-prefetch
//! primitive in `src/prefetch.rs`. This test reads every source file of the crate and
//! fails if `unsafe` code, or an `allow` of it, appears anywhere else.

use std::fs;
use std::path::{Path, PathBuf};

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

/// Whether `code` holds `word` as a whole identifier (not as part of `unsafe_code`).
fn has_word(code: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices(word).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// `(file, line number, line)` for each line of code, comments stripped, that `hit`
/// accepts.
fn code_lines(src: &Path, hit: impl Fn(&str) -> bool) -> Vec<(String, usize, String)> {
    let mut found = Vec::new();
    for path in rust_files(src) {
        let text = fs::read_to_string(&path).expect("source file is readable");
        let name = path.strip_prefix(src).unwrap().to_string_lossy().replace('\\', "/");
        for (number, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if hit(code) {
                found.push((name.clone(), number + 1, line.trim().to_string()));
            }
        }
    }
    found
}

#[test]
fn unsafe_code_appears_only_in_the_prefetch_primitive() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let files = rust_files(&src);
    assert!(files.len() > 10, "the scan must see the crate's sources, saw {files:?}");

    let unsafe_uses = code_lines(&src, |code| has_word(code, "unsafe"));
    let allows = code_lines(&src, |code| code.contains("allow(unsafe_code)"));
    assert_eq!(unsafe_uses.len(), 1, "exactly one unsafe block: {unsafe_uses:?}");
    assert_eq!(allows.len(), 1, "exactly one allow(unsafe_code): {allows:?}");
    for (file, _, _) in unsafe_uses.iter().chain(&allows) {
        assert_eq!(file, "prefetch.rs", "unsafe outside the prefetch primitive");
    }

    // Both sit on the primitive itself: the allow directly above `fn prefetch`, the block
    // inside its body, behind a SAFETY comment.
    let text = fs::read_to_string(src.join("prefetch.rs")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let allow_line = allows[0].1;
    assert!(lines[allow_line].trim_start().starts_with("pub(crate) fn prefetch<"));
    let unsafe_line = unsafe_uses[0].1;
    assert!(unsafe_line > allow_line, "the block is inside the primitive");
    assert!(
        lines[allow_line..unsafe_line].iter().any(|l| l.trim_start().starts_with("// SAFETY:")),
        "the unsafe block needs a SAFETY comment"
    );

    let lib = fs::read_to_string(src.join("lib.rs")).unwrap();
    assert!(lib.contains("#![deny(unsafe_code)]"), "the crate denies unsafe code");
}

#[test]
fn the_scan_sees_unsafe_and_ignores_look_alikes() {
    assert!(has_word("unsafe {", "unsafe"));
    assert!(has_word("    pub unsafe fn f()", "unsafe"));
    assert!(!has_word("#![deny(unsafe_code)]", "unsafe"));
    assert!(!has_word("let not_unsafe = 1;", "unsafe"));
}
