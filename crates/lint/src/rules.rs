//! The determinism rules R0–R5.
//!
//! Every rule is a pure function over one file's [`FileAnalysis`] plus its workspace-relative
//! path; rules append [`Violation`]s and never abort. Scope decisions (which crates a rule
//! polices) live in this module as path predicates so the whole contract is in one place:
//!
//! | rule | scope | what fires |
//! |------|-------|------------|
//! | R0 | everywhere | malformed `cobra-lint` comment; `hot`/`draws` directive attached to nothing |
//! | R1 | everywhere except the sampler allow-list | `gen_range`, `.choose*`, `.gen`, `next_u64()%`-style modulo reduction |
//! | R2 | `crates/core`, `crates/graph` | `HashMap`/`HashSet` (default `RandomState`) outside `use` decls |
//! | R3 | everywhere | allocation inside a `hot` fn; an unannotated `step_faulted` or adversary/defense `observe` |
//! | R4 | `crates/core` | RNG use inside a fn with no `draws(0)`/`draws(bounded)` contract |
//! | R5 | everywhere | single-threaded shared state (`RefCell`/`Cell`/`Rc`/`static mut`) inside a `par` fn; a `step_faulted` without `par` |
//!
//! Test regions (`#[test]`, `#[cfg(test)]`) are exempt from R1–R5 everywhere; R0 still fires
//! inside them because a typoed directive is a bug wherever it sits.

use crate::analysis::{Directive, FileAnalysis};
use crate::report::Violation;

/// Files where the banned R1 samplers are *defined*: the shared Lemire primitive.
const R1_EXEMPT_FILES: &[&str] = &["crates/graph/src/sample.rs"];

/// The policy modules whose `observe` impls run every round and must be annotated `hot`.
const R3_POLICY_FILES: &[&str] = &["crates/core/src/adversary.rs", "crates/core/src/defense.rs"];

fn in_crate(rel_path: &str, krate: &str) -> bool {
    rel_path.starts_with(&format!("crates/{krate}/src/"))
}

/// Runs every rule over one analysed file.
pub fn check_file(rel_path: &str, analysis: &FileAnalysis, out: &mut Vec<Violation>) {
    r0_directive_hygiene(rel_path, analysis, out);
    r1_sampler_discipline(rel_path, analysis, out);
    r2_hash_order(rel_path, analysis, out);
    r3_hot_path_alloc(rel_path, analysis, out);
    r4_draw_registry(rel_path, analysis, out);
    r5_parallel_discipline(rel_path, analysis, out);
}

/// R0 — the meta-rule: the annotation grammar itself must be well-formed, and a
/// `hot`/`draws` directive that attached to no function protects nothing and is reported.
fn r0_directive_hygiene(rel_path: &str, a: &FileAnalysis, out: &mut Vec<Violation>) {
    for (line, msg) in &a.malformed {
        out.push(Violation::new("R0", rel_path, *line, format!("malformed directive: {msg}")));
    }
    for d in &a.directives {
        if !d.consumed && !matches!(d.directive, Directive::Allow { .. }) {
            out.push(Violation::new(
                "R0",
                rel_path,
                d.line,
                "directive is not attached to any function (it protects nothing)".to_string(),
            ));
        }
    }
}

/// R1 — sampler discipline. All bounded integer sampling must go through
/// `cobra_graph::sample::uniform_index` (one Lemire-reduced `next_u64` per draw); ad-hoc
/// `gen_range`, slice `choose`, blanket `.gen`, and modulo reduction silently desynchronise
/// the frontier/dense RNG streams and are banned outside the sampler allow-list.
fn r1_sampler_discipline(rel_path: &str, a: &FileAnalysis, out: &mut Vec<Violation>) {
    if R1_EXEMPT_FILES.contains(&rel_path) {
        return;
    }
    let toks = &a.tokens;
    for (i, t) in toks.iter().enumerate() {
        if a.in_test_region(i) {
            continue;
        }
        let mut hit: Option<&str> = None;
        match t.ident() {
            Some("gen_range") => {
                hit = Some("`gen_range` is banned: use `cobra_graph::sample::uniform_index`");
            }
            Some(name @ ("choose" | "choose_multiple" | "choose_weighted" | "choose_stable"))
                if i > 0 && toks[i - 1].is_punct('.') =>
            {
                let _ = name;
                hit = Some("slice `choose` is banned: use `cobra_graph::sample::sample_slice`");
            }
            Some("gen") if i > 0 && toks[i - 1].is_punct('.') => {
                hit = Some("blanket `.gen()` is banned: draw through a sanctioned sampler");
            }
            Some("next_u64" | "next_u32")
                if toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
                    && toks.get(i + 2).map(|t| t.is_punct(')')) == Some(true)
                    && toks.get(i + 3).map(|t| t.is_punct('%')) == Some(true) =>
            {
                hit = Some(
                    "modulo reduction of a raw draw is biased and non-canonical: \
                     use `cobra_graph::sample::uniform_index`",
                );
            }
            _ => {}
        }
        if let Some(msg) = hit {
            if !a.line_allowed("R1", t.line) {
                out.push(Violation::new("R1", rel_path, t.line, msg.to_string()));
            }
        }
    }
}

/// R2 — hash-order hygiene. `HashMap`/`HashSet` iterate in per-instance `RandomState`
/// order; any appearance in `crates/core` / `crates/graph` non-test code is flagged unless
/// the line carries `allow(R2, …)` documenting a membership-only (never-iterated) use.
fn r2_hash_order(rel_path: &str, a: &FileAnalysis, out: &mut Vec<Violation>) {
    if !in_crate(rel_path, "core") && !in_crate(rel_path, "graph") {
        return;
    }
    for (i, t) in a.tokens.iter().enumerate() {
        let Some(name @ ("HashMap" | "HashSet")) = t.ident() else { continue };
        if a.in_test_region(i) || a.in_use_span(i) || a.line_allowed("R2", t.line) {
            continue;
        }
        out.push(Violation::new(
            "R2",
            rel_path,
            t.line,
            format!(
                "`{name}` has nondeterministic iteration order; use a BTree/sorted structure, \
                 or annotate a membership-only use with `// cobra-lint: allow(R2, reason)`"
            ),
        ));
    }
}

// Token patterns that allocate. `X::new` is only flagged for container types — `Self::new`
// or `GeChannel::new` do not allocate per se and are not the point of the rule.
const ALLOCATING_NEW: &[&str] =
    &["Vec", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "String", "Box"];
const ALLOCATING_MACROS: &[&str] = &["vec", "format"];
const ALLOCATING_METHODS: &[&str] = &["with_capacity", "to_vec", "to_owned", "to_string"];

/// R3 — hot-path allocation. Functions annotated `hot` may not construct containers; the
/// step/observe paths run millions of rounds and must reuse their scratch buffers. The rule
/// also *requires* the annotation on every `step_faulted` impl in `crates/core` and every
/// `observe` impl in the adversary and defense modules (the environment wrapper calls both
/// policies every round), so new process or policy code cannot silently opt out.
fn r3_hot_path_alloc(rel_path: &str, a: &FileAnalysis, out: &mut Vec<Violation>) {
    // Part 1: required-hot obligations.
    let requires_hot = |fn_name: &str| -> bool {
        (in_crate(rel_path, "core") && fn_name == "step_faulted")
            || (R3_POLICY_FILES.contains(&rel_path) && fn_name == "observe")
    };
    for f in &a.fns {
        if f.in_test || f.body.is_none() {
            continue;
        }
        if requires_hot(&f.name) && !f.hot {
            out.push(Violation::new(
                "R3",
                rel_path,
                f.line,
                format!("`{}` is a mandatory hot path: annotate it `// cobra-lint: hot`", f.name),
            ));
        }
    }

    // Part 2: no allocation inside hot bodies.
    for f in a.fns.iter().filter(|f| f.hot && !f.in_test) {
        let Some((start, end)) = f.body else { continue };
        let toks = &a.tokens;
        for i in start..=end.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            let Some(name) = t.ident() else { continue };
            let msg = if ALLOCATING_NEW.contains(&name)
                && toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
                && toks.get(i + 2).map(|t| t.is_punct(':')) == Some(true)
                && toks.get(i + 3).and_then(|t| t.ident()) == Some("new")
            {
                Some(format!("`{name}::new()` allocates inside hot fn `{}`", f.name))
            } else if ALLOCATING_MACROS.contains(&name)
                && toks.get(i + 1).map(|t| t.is_punct('!')) == Some(true)
            {
                Some(format!("`{name}!` allocates inside hot fn `{}`", f.name))
            } else if ALLOCATING_METHODS.contains(&name)
                && i > 0
                && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'))
            {
                Some(format!("`{name}` allocates inside hot fn `{}`", f.name))
            } else {
                None
            };
            if let Some(msg) = msg {
                if !a.line_allowed("R3", t.line) {
                    out.push(Violation::new("R3", rel_path, t.line, msg));
                }
            }
        }
    }
}

/// Whether token `i` uses an RNG: `rng.` method calls, or `rng` handed onward in argument
/// position (`f(rng)`, `f(&mut rng, x)`, `&mut *rng`). Parameter declarations (`rng: &mut R`)
/// and bindings (`let mut rng = …`) do not count.
fn is_rng_use(a: &FileAnalysis, i: usize) -> bool {
    let toks = &a.tokens;
    if toks[i].ident() != Some("rng") {
        return false;
    }
    let next = toks.get(i + 1);
    if next.map(|t| t.is_punct('.')) == Some(true) {
        return true;
    }
    let prev_ok = i > 0
        && (toks[i - 1].is_punct('(')
            || toks[i - 1].is_punct(',')
            || toks[i - 1].is_punct('&')
            || toks[i - 1].is_punct('*')
            || toks[i - 1].ident() == Some("mut"));
    let next_ok = next.map(|t| t.is_punct(',') || t.is_punct(')')).unwrap_or(false);
    prev_ok && next_ok
}

/// R4 — the draw-site registry. Every function in `crates/core` that touches an RNG must
/// declare its contract: `draws(0)` (this path performs no draws — the benign-fault
/// invariant) or `draws(bounded)` (draws happen and are accounted for by the equivalence
/// tests). An RNG use outside any annotated function is an unregistered draw site.
fn r4_draw_registry(rel_path: &str, a: &FileAnalysis, out: &mut Vec<Violation>) {
    if !in_crate(rel_path, "core") {
        return;
    }
    for i in 0..a.tokens.len() {
        if !is_rng_use(a, i) || a.in_test_region(i) {
            continue;
        }
        let line = a.tokens[i].line;
        if a.line_allowed("R4", line) {
            continue;
        }
        match a.enclosing_fn(i) {
            Some(f) if f.draws.is_some() => {}
            Some(f) => out.push(Violation::new(
                "R4",
                rel_path,
                line,
                format!(
                    "RNG use in `{}` without a draw contract: annotate the fn \
                     `// cobra-lint: draws(0)` or `// cobra-lint: draws(bounded)`",
                    f.name
                ),
            )),
            None => out.push(Violation::new(
                "R4",
                rel_path,
                line,
                "RNG use outside any function body cannot be registered".to_string(),
            )),
        }
    }
}

// Single-threaded interior-mutability and shared-ownership types: sound under `&self` on
// one thread, data races (or compile failures surfacing as contorted workarounds) inside
// sharded pool-thread closures. `Cell` is only flagged at a `Cell::`/`Cell<` use site so
// `UnsafeCell` (caught separately) and idents like `OnceCell` don't double-fire.
const R5_BANNED_TYPES: &[&str] = &["RefCell", "Cell", "UnsafeCell", "OnceCell", "Rc"];

/// R5 — parallel discipline. Functions annotated `// cobra-lint: par` execute inside the
/// sharded stream engine's pool threads; they may not touch single-threaded shared state:
/// `RefCell`/`Cell`/`UnsafeCell`/`OnceCell`/`Rc` or `static mut`. The pool's workers are
/// persistent, so a thread-local or cell that a shard leaves behind outlives the round and
/// is seen by whichever trial's shard runs on that worker next: the ban is what keeps a
/// trajectory independent of the schedule. The annotation is *mandatory* on every
/// `step_faulted` impl in `crates/core` — the one stepping method, whose stream-mode arm
/// shards its kernel — so a step path cannot silently opt out of the check (mirroring R3's
/// `hot` obligation on the same fns).
fn r5_parallel_discipline(rel_path: &str, a: &FileAnalysis, out: &mut Vec<Violation>) {
    // Part 1: every step path must be annotated.
    for f in &a.fns {
        if f.in_test || f.body.is_none() {
            continue;
        }
        if in_crate(rel_path, "core") && f.name == "step_faulted" && !f.par {
            out.push(Violation::new(
                "R5",
                rel_path,
                f.line,
                "`step_faulted` runs its stream-mode kernel on persistent pool threads, where \
                 shared state outlives the round: annotate it `// cobra-lint: par`"
                    .to_string(),
            ));
        }
    }

    // Part 2: no single-threaded shared state inside par bodies.
    for f in a.fns.iter().filter(|f| f.par && !f.in_test) {
        let Some((start, end)) = f.body else { continue };
        let toks = &a.tokens;
        for i in start..=end.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            let Some(name) = t.ident() else { continue };
            let banned = (R5_BANNED_TYPES.contains(&name)
                && toks.get(i + 1).is_some_and(|t| {
                    t.is_punct(':') || t.is_punct('<') || t.is_punct('>') || t.is_punct(',')
                }))
                || (name == "static" && toks.get(i + 1).and_then(|t| t.ident()) == Some("mut"));
            if banned && !a.line_allowed("R5", t.line) {
                out.push(Violation::new(
                    "R5",
                    rel_path,
                    t.line,
                    format!(
                        "`{name}` is single-threaded shared state inside par fn `{}`; shard \
                         results must flow through the engine's merge, not shared cells, which \
                         outlive the round on persistent pool threads",
                        f.name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::lexer::lex;

    fn run(rel_path: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        check_file(rel_path, &analyze(lex(src)), &mut out);
        out
    }

    fn rules(violations: &[Violation]) -> Vec<&str> {
        violations.iter().map(|v| v.rule.as_str()).collect()
    }

    #[test]
    fn r1_fires_on_gen_range_and_respects_allow() {
        let bad = "fn f(rng: &mut R) { let x = rng.gen_range(0..10); }";
        let v = run("crates/experiments/src/runner.rs", bad);
        assert!(rules(&v).contains(&"R1"), "{v:?}");
        let ok =
            "fn f(rng: &mut R) { let x = rng.gen_range(0..10); // cobra-lint: allow(R1, seed mix)\n }";
        let v = run("crates/experiments/src/runner.rs", ok);
        assert!(!rules(&v).contains(&"R1"), "{v:?}");
    }

    #[test]
    fn r1_exempts_the_sampler_file() {
        let src = "fn f(rng: &mut R) { rng.gen_range(0..10); }";
        assert!(run("crates/graph/src/sample.rs", src).is_empty());
    }

    #[test]
    fn r1_catches_modulo_reduction_and_choose() {
        let v = run("src/lib.rs", "fn f() { let i = rng.next_u64() % n; }");
        assert!(rules(&v).contains(&"R1"));
        let v = run("src/lib.rs", "fn f() { let x = items.choose(rng); }");
        assert!(rules(&v).contains(&"R1"));
    }

    #[test]
    fn r2_fires_only_in_core_and_graph_and_skips_use_decls() {
        let src = "use std::collections::HashMap;\nfn f() { let m = HashMap::default(); }";
        let v = run("crates/core/src/x.rs", src);
        assert_eq!(rules(&v), vec!["R2"], "{v:?}");
        assert!(run("crates/stats/src/x.rs", src).is_empty());
    }

    #[test]
    fn r3_requires_hot_on_step_faulted_and_bans_alloc_in_hot() {
        let v =
            run("crates/core/src/cobra.rs", "// cobra-lint: par\nfn step_faulted(&mut self) {}");
        assert_eq!(rules(&v), vec!["R3"]);
        let hot_bad = "// cobra-lint: hot\n// cobra-lint: par\n\
                       fn step_faulted(&mut self) { let v = Vec::new(); }";
        let v = run("crates/core/src/cobra.rs", hot_bad);
        assert_eq!(rules(&v), vec!["R3"]);
        let hot_ok = "// cobra-lint: hot\n// cobra-lint: par\n\
                      fn step_faulted(&mut self) { self.scratch.clear(); }";
        assert!(run("crates/core/src/cobra.rs", hot_ok).is_empty());
    }

    #[test]
    fn r4_registers_rng_uses() {
        let v = run("crates/core/src/x.rs", "fn f(rng: &mut R) { rng.gen_bool(0.5); }");
        assert_eq!(rules(&v), vec!["R4"]);
        let ok = "// cobra-lint: draws(bounded)\nfn f(rng: &mut R) { rng.gen_bool(0.5); }";
        assert!(run("crates/core/src/x.rs", ok).is_empty());
        // Passing rng onward is also a use.
        let v = run("crates/core/src/x.rs", "fn g(rng: &mut R) { helper(rng, 3); }");
        assert_eq!(rules(&v), vec!["R4"]);
    }

    #[test]
    fn r5_requires_par_on_step_faulted_and_bans_interior_mutability() {
        // A hot step path without the par annotation, in core.
        let v =
            run("crates/core/src/cobra.rs", "// cobra-lint: hot\nfn step_faulted(&mut self) {}");
        assert_eq!(rules(&v), vec!["R5"], "{v:?}");
        // Annotated but touching a RefCell.
        let bad = "// cobra-lint: par\nfn shard(&mut self) { let c = RefCell::new(0); }";
        let v = run("crates/core/src/cobra.rs", bad);
        assert_eq!(rules(&v), vec!["R5"], "{v:?}");
        assert!(v[0].message.contains("RefCell"), "{v:?}");
        // static mut is shared state too.
        let bad = "// cobra-lint: par\nfn shard(&mut self) { static mut N: u32 = 0; }";
        assert_eq!(rules(&run("crates/core/src/cobra.rs", bad)), vec!["R5"]);
        // Clean step path: hot and par, shard-local buffers only.
        let ok = "// cobra-lint: hot\n// cobra-lint: par\n\
                  fn step_faulted(&mut self) { self.scratch.clear(); }";
        assert!(run("crates/core/src/cobra.rs", ok).is_empty());
        // A documented exception is honoured.
        let allowed = "// cobra-lint: par\nfn shard(&mut self) {\n    \
             let c = Cell::new(0); // cobra-lint: allow(R5, never crosses a shard)\n}";
        assert!(run("crates/core/src/cobra.rs", allowed).is_empty());
        // The obligation is scoped to core; the ban follows the annotation anywhere.
        assert!(run("crates/stats/src/x.rs", "fn step_faulted(&mut self) {}").is_empty());
        let bad = "// cobra-lint: par\nfn shard(&self) { let r: Rc<u8> = Rc::new(1); }";
        assert!(rules(&run("crates/stats/src/x.rs", bad)).contains(&"R5"));
    }

    #[test]
    fn r0_reports_unconsumed_and_malformed() {
        let v = run("src/lib.rs", "// cobra-lint: hot\nstruct NotAFn;\n");
        assert_eq!(rules(&v), vec!["R0"]);
        let v = run("src/lib.rs", "// cobra-lint: allot(R1, oops)\n");
        assert_eq!(rules(&v), vec!["R0"]);
    }

    #[test]
    fn tests_are_exempt_from_r1_to_r4() {
        let src = "\
#[cfg(test)]
mod tests {
    fn helper(rng: &mut R) { rng.gen_range(0..9); let s = HashSet::new(); }
}
";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }
}
