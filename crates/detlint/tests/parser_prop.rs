//! Property tests for the item parser: whatever the lexer hands it —
//! including adversarial comment/string/brace soup — `ItemTree::parse`
//! must not panic, must keep every span in bounds, and must agree with
//! the lexer about how many tokens the file holds.
//!
//! The lint runs over every source file in the workspace on every CI
//! push; a parser panic on one weird file would take the whole gate
//! down, so "never panics" is the load-bearing property here.

use proptest::prelude::*;
use selfsim_detlint::lexer::lex;
use selfsim_detlint::ItemTree;

const VIOLATIONS: &str = include_str!("../fixtures/violations.rs");
const CLEAN: &str = include_str!("../fixtures/clean.rs");

/// Source fragments chosen to collide: braces inside strings and
/// comments, unbalanced braces, half-open items, pragma-looking lines.
const FRAGMENTS: &[&str] = &[
    "fn f(a: u64, b: &str) {",
    "}",
    "{",
    "pub struct S { x: u64 }",
    "enum E { A, B }",
    "impl S {",
    "match x {",
    "=> 1,",
    "#[cfg(test)]",
    "mod inner {",
    "use std::time::{Instant, SystemTime};",
    "\"a string with { and } and fn inside\"",
    "r#\"raw } string { fn g() \"#",
    "// line comment with { fn h() }",
    "/* block comment } with a brace */",
    "'{'",
    "'\\''",
    "macro_rules! m { ($x:expr) => { $x + 1 }; }",
    "let v = [1, 2, 3];",
    "trait T {",
    ";",
    "::",
    "<'a>",
    "unsafe fn",
    "pub(crate)",
];

/// Checks every structural invariant the rules layer leans on.
fn well_formed(src: &str) {
    let lexed = lex(src);
    let tree = ItemTree::parse(&lexed.toks);
    assert_eq!(
        tree.token_count(),
        lexed.toks.len(),
        "token_count disagrees with the lexer"
    );
    for f in &tree.fns {
        if let Some((lo, hi)) = f.body {
            assert!(lo <= hi, "fn `{}` has an inverted body span", f.name);
            assert!(hi <= lexed.toks.len(), "fn `{}` span out of bounds", f.name);
        }
    }
    for &(lo, hi) in &tree.test_ranges {
        assert!(lo <= hi, "inverted test range {lo}..{hi}");
    }
}

#[test]
fn committed_fixtures_parse_with_sound_spans() {
    well_formed(VIOLATIONS);
    well_formed(CLEAN);
}

#[test]
fn fixture_items_survive_a_line_round_trip() {
    // Re-joining a fixture's lines is an identity; parsing the rebuilt
    // source must find the same items at the same lines.
    for src in [VIOLATIONS, CLEAN] {
        let rebuilt: String = src.lines().map(|l| format!("{l}\n")).collect();
        let a = ItemTree::parse(&lex(src).toks);
        let b = ItemTree::parse(&lex(&rebuilt).toks);
        let names = |t: &ItemTree| {
            t.fns
                .iter()
                .map(|f| (f.name.clone(), f.line, f.in_test))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.test_ranges, b.test_ranges);
        assert_eq!(a.token_count(), b.token_count());
    }
}

proptest! {
    #[test]
    fn random_fragment_soup_never_panics(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..40),
        newline_every in 1usize..5,
    ) {
        let mut src = String::new();
        for (i, &p) in picks.iter().enumerate() {
            src.push_str(FRAGMENTS[p]);
            src.push(if i % newline_every == 0 { '\n' } else { ' ' });
        }
        well_formed(&src);
    }

    #[test]
    fn truncating_the_violation_fixture_never_panics(cut in 0usize..4096) {
        // Truncation at an arbitrary byte simulates every half-written
        // state an editor can save; clamp to a char boundary.
        let mut cut = cut.min(VIOLATIONS.len());
        while !VIOLATIONS.is_char_boundary(cut) {
            cut -= 1;
        }
        well_formed(&VIOLATIONS[..cut]);
    }
}
