//! Self-tests over the committed fixtures, plus the test that gives the
//! whole lint its teeth: the real workspace must be clean.
//!
//! The golden `--format json` report in `golden_violations.json` is part
//! of the tool's contract — downstream automation parses it — so editing
//! `fixtures/violations.rs`, a rule message or the serialization
//! requires re-blessing it, deliberately, with `selfsim-detlint --bless`.

use std::path::Path;

use selfsim_detlint::{lint_named_sources, lint_workspace, Report, Rule};

const VIOLATIONS: &str = include_str!("../fixtures/violations.rs");
const CLEAN: &str = include_str!("../fixtures/clean.rs");
const GOLDEN: &str = include_str!("golden_violations.json");

/// Lints a fixture exactly the way explicit-file mode (and `--bless`)
/// does.
fn lint_fixture(label: &str, src: &str) -> Report {
    lint_named_sources(&[(label.to_string(), src.to_string())])
}

#[test]
fn clean_fixture_produces_zero_findings() {
    let report = lint_fixture("crates/detlint/fixtures/clean.rs", CLEAN);
    assert!(
        report.clean(),
        "lexer traps leaked findings:\n{}",
        report.render_human()
    );
}

#[test]
fn violation_fixture_trips_every_applicable_rule() {
    let report = lint_fixture("crates/detlint/fixtures/violations.rs", VIOLATIONS);
    let fired: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
    for rule in Rule::ALL {
        assert!(fired.contains(&rule), "{} did not fire", rule.id());
    }
    // The well-formed pragma suppressed its sanctioned `rand::random`:
    // exactly the two seeded ambient-rng sites remain.
    assert_eq!(
        fired.iter().filter(|&&r| r == Rule::AmbientRng).count(),
        2,
        "the pragma-sanctioned site must not be reported"
    );
}

#[test]
fn golden_json_report_over_the_violation_fixture() {
    let report = lint_fixture("crates/detlint/fixtures/violations.rs", VIOLATIONS);
    assert_eq!(
        format!("{}\n", report.render_json()),
        GOLDEN,
        "golden drift — if the change is intentional, re-bless with \
         `cargo run -p selfsim-detlint -- --bless --root <workspace-root>`"
    );
}

#[test]
fn every_new_rule_tag_is_pinned_in_the_golden() {
    // Belt and braces: the golden itself must mention each item-tree
    // rule, so a silently-dead rule cannot hide behind a re-bless.
    for tag in ["\"seed-provenance\"", "\"panic-ratchet\""] {
        assert!(GOLDEN.contains(tag), "golden lost the {tag} finding");
    }
}

#[test]
fn lexer_edge_cases_in_the_clean_fixture_are_the_hard_ones() {
    // Belt and braces on top of the zero-findings assertion: the traps
    // the fixture exists for really are present in its source.
    for trap in [
        "r##\"raw with \"# inside",
        "/* nested once */",
        "Instant::now() and HashMap::new() in a cooked string",
        "/// Doc comments are not code: `Instant::now()`",
        "seed_from_u64(stream_seed)",
        "flags: &'a [bool]",
    ] {
        assert!(CLEAN.contains(trap), "fixture lost its `{trap}` trap");
    }
}

#[test]
fn the_workspace_itself_is_clean() {
    // `cargo test` enforces the contract, not just CI: the real tree —
    // with its committed detlint.toml panic budgets — must produce zero
    // findings.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/detlint sits two levels under the workspace root");
    let report = lint_workspace(root).expect("workspace walk succeeds");
    assert!(
        report.clean(),
        "the workspace violates its own determinism contract:\n{}",
        report.render_human()
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did discovery break?",
        report.files_scanned
    );
    // Every crate with panic surface is budgeted (the ratchet can only
    // bind if the budget exists).
    for (krate, tally) in &report.panic_tallies {
        if tally.count > 0 {
            assert!(
                tally.budget.is_some(),
                "crate `{krate}` has no panic budget"
            );
        }
    }
    assert!(
        !report.panic_tallies.is_empty(),
        "panic tallies missing — did the panic ratchet stop running?"
    );
}
