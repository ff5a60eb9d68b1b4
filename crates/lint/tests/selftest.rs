//! The acceptance-criterion self-tests: deliberately-regressive source
//! (fixtures under `tests/fixtures/`, stored as `.rs.txt` so neither
//! cargo nor the workspace walk picks them up) must fail the ratchet
//! when scanned under the paths a real regression would land at.

use dfx_lint::rules::scan_file;
use dfx_lint::{count_by_rule, Baseline, Rule};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn a_naked_unwrap_in_crates_sim_fails_the_ratchet() {
    let src = fixture("naked_unwrap_in_sim.rs.txt");
    let violations = scan_file("crates/sim/src/regression.rs", &src);
    let panics: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::PanicPolicy)
        .collect();
    assert_eq!(panics.len(), 3, "unwrap + expect + expect: {violations:?}");

    // And the committed baseline rejects the extra debt: simulate the
    // workspace scan having picked these up on top of today's counts.
    let baseline_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../lint-baseline.toml"
    ))
    .expect("committed baseline");
    let baseline = Baseline::parse(&baseline_text).expect("baseline parses");
    let mut counts = baseline.counts.clone();
    for v in &violations {
        *counts.entry(v.rule.slug().to_string()).or_insert(0) += 1;
    }
    let drift = baseline.drift(&counts);
    assert!(
        drift
            .iter()
            .any(|d| d.rule == Rule::PanicPolicy && d.actual > d.expected),
        "new unwraps must register as new debt"
    );
}

#[test]
fn an_unsorted_hashmap_in_crates_serve_fails_the_ratchet() {
    let src = fixture("hashmap_iteration_in_serve.rs.txt");
    let violations = scan_file("crates/serve/src/regression.rs", &src);
    let counts = count_by_rule(&violations);
    assert!(
        counts.get("nondet-collections").copied().unwrap_or(0) >= 2,
        "the use and the parameter type must both flag: {violations:?}"
    );
    // The unannotated float accumulation over the map's arbitrary
    // iteration order is flagged too — the compound failure mode R1+R5
    // exist to catch.
    assert!(
        counts.get("float-accumulation").copied().unwrap_or(0) >= 1,
        "order-sensitive sum over a HashMap must flag: {violations:?}"
    );

    // nondet-collections has a zero baseline, so any hit is a failure.
    let baseline_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../lint-baseline.toml"
    ))
    .expect("committed baseline");
    let baseline = Baseline::parse(&baseline_text).expect("baseline parses");
    let drift = baseline.drift(&counts);
    assert!(
        drift
            .iter()
            .any(|d| d.rule == Rule::NondetCollections && d.actual > d.expected),
        "a HashMap in crates/serve must register as new debt"
    );
}

#[test]
fn a_for_without_in_opens_no_loop_body() {
    // `impl Trait for Type { .. }` and a `for<'a>` bound are not loops:
    // only the accumulation inside `replay`'s `for .. in` loop flags.
    let src = fixture("float_accumulation_outside_loops.rs.txt");
    let violations = scan_file("crates/sim/src/regression.rs", &src);
    let floats: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::FloatAccumulation)
        .map(|v| v.excerpt.trim())
        .collect();
    assert_eq!(floats, ["self.now_ms += gap;"], "{violations:?}");
}

#[test]
fn the_same_sources_are_clean_outside_the_guarded_scopes() {
    // Scope sanity: the fixtures only violate *because of where* they
    // pretend to live. Under tests/ the unwraps are fine; outside the
    // deterministic crates the HashMap is fine.
    let unwraps = fixture("naked_unwrap_in_sim.rs.txt");
    assert!(scan_file("crates/sim/tests/regression.rs", &unwraps).is_empty());
    let hashmap = fixture("hashmap_iteration_in_serve.rs.txt");
    let outside = scan_file("crates/hw/src/regression.rs", &hashmap);
    assert!(
        outside.iter().all(|v| v.rule != Rule::NondetCollections),
        "{outside:?}"
    );
}
