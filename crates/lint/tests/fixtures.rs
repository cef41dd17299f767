//! Per-rule fixture suite: for every rule R0–R5 a bad snippet must fire and an
//! annotated/idiomatic snippet must pass. The fixture sources live under
//! `tests/fixtures/` (a directory, so cargo does not compile them and `--workspace`
//! does not scan them) and are linted through [`cobra_lint::lint_source`] with
//! masqueraded workspace-relative paths, which is what selects each rule's scope.

use cobra_lint::lint_source;

/// Rule IDs present in the diagnostics for one fixture.
fn fired(rel_path: &str, source: &str) -> Vec<String> {
    let mut rules: Vec<String> =
        lint_source(rel_path, source).into_iter().map(|v| v.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn r1_bad_fixture_fires_on_every_banned_sampler_form() {
    let v = lint_source("crates/experiments/src/fixture.rs", include_str!("fixtures/r1_bad.rs"));
    let r1: Vec<_> = v.iter().filter(|v| v.rule == "R1").collect();
    // gen_range, next_u64()%, .choose, blanket .gen — one diagnostic each.
    assert_eq!(r1.len(), 4, "{v:?}");
    assert!(v.iter().all(|v| v.rule == "R1"), "{v:?}");
    for v in &r1 {
        assert!(v.line > 0 && v.file.ends_with("fixture.rs"));
    }
}

#[test]
fn r1_ok_fixture_is_clean_via_sanctioned_sampler_and_allow() {
    let v = lint_source("crates/experiments/src/fixture.rs", include_str!("fixtures/r1_ok.rs"));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r1_exempt_files_may_use_banned_forms() {
    // The same bad source is legal inside the sampler/reference allow-list.
    let src = include_str!("fixtures/r1_bad.rs");
    assert!(lint_source("crates/graph/src/sample.rs", src).is_empty());
}

#[test]
fn r2_bad_fixture_fires_on_iterated_hashmap() {
    let rules = fired("crates/core/src/fixture.rs", include_str!("fixtures/r2_bad.rs"));
    assert_eq!(rules, vec!["R2"]);
    // The same source is out of scope for R2 outside core/graph.
    assert!(fired("crates/stats/src/fixture.rs", include_str!("fixtures/r2_bad.rs")).is_empty());
}

#[test]
fn r2_ok_fixture_is_clean_via_btree_and_membership_annotation() {
    let v = lint_source("crates/graph/src/fixture.rs", include_str!("fixtures/r2_ok.rs"));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r3_bad_fixture_fires_on_missing_hot_and_on_hot_allocation() {
    let v = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/r3_bad.rs"));
    let r3: Vec<_> = v.iter().filter(|v| v.rule == "R3").collect();
    // Unannotated step_faulted + Vec::new + format! inside the hot fn.
    assert_eq!(r3.len(), 3, "{v:?}");
    assert!(
        r3.iter().any(|v| v.message.contains("mandatory hot path")),
        "missing-hot diagnostic expected: {v:?}"
    );
    assert!(
        r3.iter().any(|v| v.message.contains("Vec::new()")),
        "allocation diagnostic expected: {v:?}"
    );
}

#[test]
fn r3_shard_bad_fixture_fires_on_allocation_inside_a_hot_shard_closure() {
    let v = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/r3_shard_bad.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "R3", "{v:?}");
    assert!(v[0].message.contains("with_capacity"), "{v:?}");
}

#[test]
fn r3_ok_fixture_is_clean_with_hot_annotation_and_scratch_reuse() {
    let v = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/r3_ok.rs"));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r3_policy_bad_fixture_fires_on_unannotated_defense_and_adversary_observe() {
    let src = include_str!("fixtures/r3_policy_bad.rs");
    for file in ["crates/core/src/defense.rs", "crates/core/src/adversary.rs"] {
        let v = lint_source(file, src);
        assert_eq!(fired(file, src), vec!["R3"], "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("`observe` is a mandatory hot path")), "{v:?}");
    }
    // Other modules' `observe` fns (sim observers, say) carry no obligation.
    assert!(fired("crates/core/src/sim.rs", src).is_empty());
}

#[test]
fn r3_policy_ok_fixture_is_clean_with_hot_observe() {
    let v = lint_source("crates/core/src/defense.rs", include_str!("fixtures/r3_policy_ok.rs"));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r4_bad_fixture_fires_on_unregistered_rng_uses() {
    let v = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/r4_bad.rs"));
    let r4: Vec<_> = v.iter().filter(|v| v.rule == "R4").collect();
    // A direct `rng.` draw and an onward `helper(rng, …)` hand-off, both uncontracted.
    assert_eq!(r4.len(), 2, "{v:?}");
    // R4 polices crates/core only.
    assert!(fired("crates/graph/src/fixture.rs", include_str!("fixtures/r4_bad.rs")).is_empty());
}

#[test]
fn r4_ok_fixture_is_clean_with_draw_contracts() {
    let v = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/r4_ok.rs"));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r5_bad_fixture_fires_on_missing_par_and_shared_state() {
    let v = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/r5_bad.rs"));
    let r5: Vec<_> = v.iter().filter(|v| v.rule == "R5").collect();
    // step_faulted without par + RefCell + Rc (twice: annotation and construction) +
    // static mut inside the par fn.
    assert!(r5.len() >= 4, "{v:?}");
    assert!(
        r5.iter().any(|v| v.message.contains("annotate it")),
        "missing-par diagnostic expected: {v:?}"
    );
    assert!(
        r5.iter().any(|v| v.message.contains("RefCell")),
        "shared-state diagnostic expected: {v:?}"
    );
    assert!(
        r5.iter().any(|v| v.message.contains("static")),
        "static-mut diagnostic expected: {v:?}"
    );
    // The step_faulted obligation is scoped to crates/core.
    let elsewhere = lint_source("crates/stats/src/fixture.rs", include_str!("fixtures/r5_bad.rs"));
    assert!(
        !elsewhere.iter().any(|v| v.message.contains("annotate it")),
        "no obligation outside core: {elsewhere:?}"
    );
}

#[test]
fn r5_ok_fixture_is_clean_with_par_annotation_and_ordered_merge() {
    let v = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/r5_ok.rs"));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r0_bad_fixture_fires_on_typo_and_unattached_directive() {
    let v = lint_source("src/fixture.rs", include_str!("fixtures/r0_bad.rs"));
    let r0: Vec<_> = v.iter().filter(|v| v.rule == "R0").collect();
    assert_eq!(r0.len(), 2, "{v:?}");
    assert!(r0.iter().any(|v| v.message.contains("malformed")), "{v:?}");
    assert!(r0.iter().any(|v| v.message.contains("not attached")), "{v:?}");
}

#[test]
fn r0_ok_fixture_is_clean() {
    let v = lint_source("src/fixture.rs", include_str!("fixtures/r0_ok.rs"));
    assert!(v.is_empty(), "{v:?}");
}
