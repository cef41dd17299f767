//! Source-structure analysis shared by all rules.
//!
//! Turns the flat token stream from [`crate::lexer`] into the facts the rules consume:
//!
//! * the **directive table** — every `// cobra-lint: …` comment, parsed against the grammar
//!   `hot` | `par` | `draws(0)` | `draws(bounded)` | `allow(RULE, reason…)`;
//! * the **function table** — each `fn` with its body extent (token indices), the directives
//!   attached to it, and whether it lies in a test region;
//! * **test regions** — items covered by an attribute mentioning `test` (`#[test]`,
//!   `#[cfg(test)]`, `#[cfg(any(test, …))]`), which every rule exempts;
//! * **use-declaration spans** — `use std::collections::HashMap;` must not fire R2.
//!
//! Attachment rules for directives (documented in the README's determinism contract):
//! a directive comment attaches to the *next* function if it appears on its own line among
//! the function's leading trivia (comments, attributes, visibility/qualifier keywords);
//! an `allow` directive written at the end of a code line attaches to *that line*; an
//! `allow` on its own line also covers the *next* non-comment line, so it can sit above the
//! offending statement. Malformed directives are reported as rule **R0** so typos fail CI
//! instead of silently disabling a check.

use crate::lexer::{Token, TokenKind};

/// A parsed `// cobra-lint: …` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `hot` — the next function is a hot path: R3 bans allocation inside it.
    Hot,
    /// `par` — the next function runs inside sharded pool threads: R5 bans
    /// single-threaded interior mutability (`RefCell`/`Cell`/`Rc`/`static mut`) inside it.
    Par,
    /// `draws(0)` — the next function performs no RNG draws on this path.
    DrawsZero,
    /// `draws(bounded)` — the next function draws a bounded, accounted number of times.
    DrawsBounded,
    /// `allow(RULE, reason)` — suppress `RULE` on the attached line(s).
    Allow {
        /// The rule being suppressed, e.g. `"R1"`.
        rule: String,
        /// Human-readable justification (mandatory).
        reason: String,
    },
}

/// A directive with its source position and, for fn-attached kinds, a consumption flag.
#[derive(Debug, Clone)]
pub struct PlacedDirective {
    /// The parsed directive.
    pub directive: Directive,
    /// 1-based line of the comment.
    pub line: u32,
    /// Index of the comment token in the token stream.
    pub token_index: usize,
    /// Set when a function (or line, for `allow`) claimed this directive. Unconsumed
    /// `hot`/`draws` directives are reported as R0: they silently protect nothing.
    pub consumed: bool,
}

/// A function item: name, extent, attached directives and test status.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_token: usize,
    /// Token range of the body, `body_start..body_end` (the `{`/`}` inclusive). `None` for
    /// bodyless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// `// cobra-lint: hot` attached.
    pub hot: bool,
    /// `// cobra-lint: par` attached.
    pub par: bool,
    /// Attached draw contract, if any.
    pub draws: Option<DrawContract>,
    /// Whether this function sits inside a `#[test]` / `#[cfg(test)]` region.
    pub in_test: bool,
}

/// The two draw contracts of the R4 registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawContract {
    /// `draws(0)`.
    Zero,
    /// `draws(bounded)`.
    Bounded,
}

/// Everything the rules need to know about one source file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// The token stream (rules index into it).
    pub tokens: Vec<Token>,
    /// All functions, in source order.
    pub fns: Vec<FnInfo>,
    /// All placed directives (for R0 and line-allow lookups).
    pub directives: Vec<PlacedDirective>,
    /// Malformed `cobra-lint` comments: `(line, message)`.
    pub malformed: Vec<(u32, String)>,
    /// Token-index ranges covered by a test attribute's item.
    pub test_regions: Vec<(usize, usize)>,
    /// Token-index ranges of `use …;` declarations.
    pub use_spans: Vec<(usize, usize)>,
}

impl FileAnalysis {
    /// Whether token index `i` falls inside a test region.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| i >= a && i <= b)
    }

    /// Whether token index `i` falls inside a `use` declaration.
    pub fn in_use_span(&self, i: usize) -> bool {
        self.use_spans.iter().any(|&(a, b)| i >= a && i <= b)
    }

    /// Whether `rule` is allowed (suppressed) on `line` by an `allow` directive.
    pub fn line_allowed(&self, rule: &str, line: u32) -> bool {
        self.directives.iter().any(|d| match &d.directive {
            Directive::Allow { rule: r, .. } => {
                r == rule && (d.line == line || self.allow_covers_next_line(d, line))
            }
            _ => false,
        })
    }

    /// The innermost function whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnInfo> {
        // Functions are in source order; the innermost match is the latest one whose body
        // spans `i` (nested fns start later but still contain the index).
        self.fns
            .iter()
            .filter(|f| matches!(f.body, Some((a, b)) if i >= a && i <= b))
            .max_by_key(|f| f.fn_token)
    }

    fn allow_covers_next_line(&self, d: &PlacedDirective, line: u32) -> bool {
        // A standalone allow (comment is the only token on its line) covers the next
        // non-comment token's line.
        let standalone = !self.tokens.iter().any(|t| t.line == d.line && !t.is_comment());
        if !standalone {
            return false;
        }
        self.tokens
            .iter()
            .skip(d.token_index + 1)
            .find(|t| !t.is_comment())
            .is_some_and(|t| t.line == line)
    }
}

/// Parses the text after `//` into a directive, if the comment is a `cobra-lint` comment at
/// all. Returns `Ok(None)` for ordinary comments, `Err(msg)` for malformed directives.
/// Doc comments (text starting with `/` or `!`) are never directives — they are prose.
fn parse_directive(text: &str) -> Result<Option<Directive>, String> {
    if text.starts_with('/') || text.starts_with('!') {
        return Ok(None);
    }
    let trimmed = text.trim_start();
    let Some(rest) = trimmed.strip_prefix("cobra-lint") else {
        return Ok(None);
    };
    let rest = rest.trim_start();
    let Some(body) = rest.strip_prefix(':') else {
        return Err("expected `:` after `cobra-lint`".to_string());
    };
    let body = body.trim();
    if body == "hot" {
        return Ok(Some(Directive::Hot));
    }
    if body == "par" {
        return Ok(Some(Directive::Par));
    }
    if let Some(args) = body.strip_prefix("draws") {
        let args = args.trim();
        let inner = args
            .strip_prefix('(')
            .and_then(|a| a.strip_suffix(')'))
            .ok_or_else(|| "expected `draws(0)` or `draws(bounded)`".to_string())?;
        return match inner.trim() {
            "0" => Ok(Some(Directive::DrawsZero)),
            "bounded" => Ok(Some(Directive::DrawsBounded)),
            other => Err(format!("unknown draw contract `{other}` (use `0` or `bounded`)")),
        };
    }
    if let Some(args) = body.strip_prefix("allow") {
        let args = args.trim();
        let inner = args
            .strip_prefix('(')
            .and_then(|a| a.strip_suffix(')'))
            .ok_or_else(|| "expected `allow(RULE, reason)`".to_string())?;
        let (rule, reason) = inner
            .split_once(',')
            .ok_or_else(|| "allow needs a reason: `allow(RULE, reason)`".to_string())?;
        let rule = rule.trim();
        let reason = reason.trim();
        if !matches!(rule, "R1" | "R2" | "R3" | "R4" | "R5") {
            return Err(format!("unknown rule `{rule}` in allow (expected R1..R5)"));
        }
        if reason.is_empty() {
            return Err("allow reason must not be empty".to_string());
        }
        return Ok(Some(Directive::Allow { rule: rule.to_string(), reason: reason.to_string() }));
    }
    Err(format!("unknown cobra-lint directive `{body}`"))
}

/// Finds the matching `}` for the `{` at token index `open`, skipping comments.
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Skips one attribute starting at the `#` token index; returns the index just past it.
fn skip_attribute(tokens: &[Token], hash: usize) -> usize {
    let mut i = hash + 1;
    if tokens.get(i).map(|t| t.is_punct('!')) == Some(true) {
        i += 1;
    }
    if tokens.get(i).map(|t| t.is_punct('[')) == Some(true) {
        let mut depth = 0usize;
        while i < tokens.len() {
            if tokens[i].is_punct('[') {
                depth += 1;
            } else if tokens[i].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
    }
    i
}

/// Whether the attribute at `hash` mentions the identifier `test` anywhere.
fn attribute_mentions_test(tokens: &[Token], hash: usize) -> bool {
    let end = skip_attribute(tokens, hash);
    tokens[hash..end].iter().any(|t| matches!(t.ident(), Some("test" | "cfg_test")))
}

/// Finds the extent of the item that starts at (or after) token index `start`: skips
/// further attributes and leading keywords, then brace-matches the first `{` at
/// angle/paren depth 0, or stops at a top-level `;`.
fn item_extent(tokens: &[Token], start: usize) -> (usize, usize) {
    let mut i = start;
    // Skip any further attributes.
    while i < tokens.len() {
        if tokens[i].is_punct('#') {
            i = skip_attribute(tokens, i);
        } else if tokens[i].is_comment() {
            i += 1;
        } else {
            break;
        }
    }
    let mut paren = 0isize;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct('{') && paren == 0 {
            return (start, match_brace(tokens, j));
        } else if t.is_punct(';') && paren == 0 {
            return (start, j);
        }
        j += 1;
    }
    (start, tokens.len().saturating_sub(1))
}

// Keywords and trivia that may appear between a directive comment / attribute and the `fn`
// keyword it decorates.
fn is_fn_leading_keyword(word: &str) -> bool {
    matches!(
        word,
        "pub"
            | "const"
            | "async"
            | "unsafe"
            | "extern"
            | "crate"
            | "in"
            | "self"
            | "super"
            | "default"
    )
}

/// Analyses one file's token stream.
pub fn analyze(tokens: Vec<Token>) -> FileAnalysis {
    let mut directives = Vec::new();
    let mut malformed = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if let TokenKind::LineComment(text) = &t.kind {
            match parse_directive(text) {
                Ok(Some(d)) => directives.push(PlacedDirective {
                    directive: d,
                    line: t.line,
                    token_index: i,
                    consumed: false,
                }),
                Ok(None) => {}
                Err(msg) => malformed.push((t.line, msg)),
            }
        }
    }

    // Test regions: any attribute mentioning `test` exempts the item that follows it.
    let mut test_regions: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') {
            let after = skip_attribute(&tokens, i);
            if attribute_mentions_test(&tokens, i) {
                let (_, end) = item_extent(&tokens, after);
                // Merge into an existing region when nested (#[cfg(test)] mod { #[test] fn }).
                if let Some(last) = test_regions.last_mut() {
                    if i >= last.0 && i <= last.1 {
                        i = after;
                        continue;
                    }
                }
                test_regions.push((i, end));
            }
            i = after;
        } else {
            i += 1;
        }
    }

    // Use-declaration spans.
    let mut use_spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].ident() == Some("use") {
            let start = i;
            while i < tokens.len() && !tokens[i].is_punct(';') {
                i += 1;
            }
            use_spans.push((start, i));
        }
        i += 1;
    }

    // Function table.
    let mut fns = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.ident() != Some("fn") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) else { continue };
        // Body: first `{` at paren/bracket depth 0 after the signature, or `;`.
        let mut depth = 0isize;
        let mut body = None;
        let mut j = i + 1;
        while j < tokens.len() {
            let tk = &tokens[j];
            if tk.is_punct('(') || tk.is_punct('[') {
                depth += 1;
            } else if tk.is_punct(')') || tk.is_punct(']') {
                depth -= 1;
            } else if tk.is_punct('{') && depth == 0 {
                body = Some((j, match_brace(&tokens, j)));
                break;
            } else if tk.is_punct(';') && depth == 0 {
                break;
            }
            j += 1;
        }
        fns.push(FnInfo {
            name: name.to_string(),
            line: t.line,
            fn_token: i,
            body,
            hot: false,
            par: false,
            draws: None,
            in_test: false,
        });
    }

    // Attach directives: walk backwards from each `fn` over its leading trivia (comments,
    // attributes, qualifier keywords, `pub(crate)` parens) and claim hot/draws directives.
    for f in &mut fns {
        let mut k = f.fn_token;
        let mut bracket_depth = 0usize; // inside #[…] everything is trivia
        while k > 0 {
            let prev = &tokens[k - 1];
            if prev.is_punct(']') {
                bracket_depth += 1;
                k -= 1;
                continue;
            }
            if prev.is_punct('[') {
                bracket_depth = bracket_depth.saturating_sub(1);
                k -= 1;
                continue;
            }
            if bracket_depth > 0 {
                k -= 1;
                continue;
            }
            let eats = match &prev.kind {
                TokenKind::LineComment(_) | TokenKind::BlockComment => true,
                TokenKind::Ident(w) => is_fn_leading_keyword(w),
                TokenKind::Punct('(') | TokenKind::Punct(')') | TokenKind::Punct('#') => true,
                TokenKind::Literal => true, // extern "C"
                _ => false,
            };
            if !eats {
                break;
            }
            k -= 1;
        }
        for d in directives.iter_mut().filter(|d| d.token_index >= k && d.token_index < f.fn_token)
        {
            match d.directive {
                Directive::Hot => {
                    f.hot = true;
                    d.consumed = true;
                }
                Directive::Par => {
                    f.par = true;
                    d.consumed = true;
                }
                Directive::DrawsZero => {
                    f.draws = Some(DrawContract::Zero);
                    d.consumed = true;
                }
                Directive::DrawsBounded => {
                    f.draws = Some(DrawContract::Bounded);
                    d.consumed = true;
                }
                Directive::Allow { .. } => {} // allows attach to lines, not fns
            }
        }
        f.in_test = test_regions.iter().any(|&(a, b)| f.fn_token >= a && f.fn_token <= b);
    }

    FileAnalysis { tokens, fns, directives, malformed, test_regions, use_spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn analyze_src(src: &str) -> FileAnalysis {
        analyze(lex(src))
    }

    #[test]
    fn hot_and_draws_attach_through_attributes_and_visibility() {
        let src = "\
// cobra-lint: hot
// cobra-lint: draws(bounded)
#[inline]
pub(crate) fn step_faulted(&mut self) {}
";
        let a = analyze_src(src);
        assert_eq!(a.fns.len(), 1);
        assert!(a.fns[0].hot);
        assert_eq!(a.fns[0].draws, Some(DrawContract::Bounded));
        assert!(a.directives.iter().all(|d| d.consumed));
    }

    #[test]
    fn par_attaches_alongside_hot() {
        let src = "\
// cobra-lint: hot
// cobra-lint: par
fn step_faulted(&mut self) {}
";
        let a = analyze_src(src);
        assert!(a.fns[0].hot && a.fns[0].par);
        assert!(a.directives.iter().all(|d| d.consumed));
    }

    #[test]
    fn doc_comments_are_not_directives() {
        let src = "/// cobra-lint: hot\nfn quiet() {}\n";
        let a = analyze_src(src);
        assert!(!a.fns[0].hot);
        assert!(a.directives.is_empty());
        assert!(a.malformed.is_empty());
    }

    #[test]
    fn malformed_directives_are_reported() {
        let src = "// cobra-lint: draws(7)\nfn f() {}\n// cobra-lint: allow(R9, x)\n";
        let a = analyze_src(src);
        assert_eq!(a.malformed.len(), 2);
    }

    #[test]
    fn test_attributes_create_exempt_regions() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn check() {}
}
";
        let a = analyze_src(src);
        let live = a.fns.iter().find(|f| f.name == "live").unwrap();
        let helper = a.fns.iter().find(|f| f.name == "helper").unwrap();
        let check = a.fns.iter().find(|f| f.name == "check").unwrap();
        assert!(!live.in_test);
        assert!(helper.in_test);
        assert!(check.in_test);
    }

    #[test]
    fn trailing_allow_covers_its_line_and_standalone_allow_the_next() {
        let src = "\
fn f() {
    let x = HashSet::new(); // cobra-lint: allow(R2, membership only)
    // cobra-lint: allow(R1, float init)
    let y = rng.gen_range(0..2);
}
";
        let a = analyze_src(src);
        assert!(a.line_allowed("R2", 2));
        assert!(a.line_allowed("R1", 4));
        assert!(!a.line_allowed("R1", 2));
    }

    #[test]
    fn enclosing_fn_finds_innermost() {
        let src = "fn outer() { fn inner() { marker(); } }";
        let a = analyze_src(src);
        let marker = a.tokens.iter().position(|t| t.ident() == Some("marker")).unwrap();
        assert_eq!(a.enclosing_fn(marker).unwrap().name, "inner");
    }

    #[test]
    fn use_spans_cover_declarations() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8>; }\n";
        let a = analyze_src(src);
        let first = a.tokens.iter().position(|t| t.ident() == Some("HashMap")).unwrap();
        assert!(a.in_use_span(first));
        let second = a.tokens.iter().rposition(|t| t.ident() == Some("HashMap")).unwrap();
        assert!(!a.in_use_span(second));
    }

    #[test]
    fn bodyless_fns_have_no_extent() {
        let src = "trait T { fn sig(&self); }\n";
        let a = analyze_src(src);
        assert!(a.fns[0].body.is_none());
    }
}
