//! `detlint::allow` pragma parsing.
//!
//! A sanctioned violation is exempted *in place*, with a reason the
//! reviewer can read:
//!
//! ```text
//! // detlint::allow(seed-provenance, reason = "fixed shuffle seed; any permutation yields the same circle")
//! let mut rng = StdRng::seed_from_u64(0x5e1f_51a1);
//! ```
//!
//! Grammar: `detlint::allow(<rule>, reason = "<non-empty>")` inside a
//! non-doc comment.  `detlint::allow-file(...)` exempts the whole file.
//! The reason is *required*: a pragma with a missing, empty or
//! whitespace-only reason — or an unknown rule name — is itself reported
//! as an `invalid-pragma` finding, so an exemption can never be quieter
//! than the violation it hides.
//!
//! Reach: a trailing pragma (sharing its line with code) covers that line
//! only.  A standalone pragma comment covers the next code line, skipping
//! over attribute-only lines in between — so the idiomatic stack
//!
//! ```text
//! // detlint::allow(seed-provenance, reason = "…")
//! #[allow(unused_mut)] // the shuffle below may be compiled out
//! let mut rng = StdRng::seed_from_u64(0x5e1f_51a1);
//! ```
//!
//! exempts the `let`, not the attribute.

use crate::lexer::Comment;
use crate::rules::Rule;

/// One parsed `detlint::allow` / `detlint::allow-file` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    pub rule: Rule,
    /// `detlint::allow-file`: exempt the rule for the entire file.
    pub file_wide: bool,
    /// Line the pragma comment starts on.
    pub line: u32,
}

/// A malformed pragma, reported as an `invalid-pragma` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    pub line: u32,
    pub message: String,
}

/// Extracts every pragma from a file's comments.  Doc comments are
/// skipped: a pragma in rustdoc is documentation, not an exemption.
pub fn parse_pragmas(comments: &[Comment]) -> (Vec<Pragma>, Vec<PragmaError>) {
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for comment in comments {
        if comment.doc {
            continue;
        }
        let mut rest = comment.text.as_str();
        while let Some(at) = rest.find("detlint::allow") {
            rest = &rest[at + "detlint::allow".len()..];
            let file_wide = rest.starts_with("-file");
            if file_wide {
                rest = &rest["-file".len()..];
            }
            match parse_one(rest, file_wide, comment.line) {
                Ok((pragma, tail)) => {
                    pragmas.push(pragma);
                    rest = tail;
                }
                Err(message) => {
                    errors.push(PragmaError {
                        line: comment.line,
                        message,
                    });
                    break;
                }
            }
        }
    }
    (pragmas, errors)
}

/// Parses `(<rule>, reason = "…")` at the head of `rest`, returning the
/// pragma and the unconsumed tail.
fn parse_one(rest: &str, file_wide: bool, line: u32) -> Result<(Pragma, &str), String> {
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected `(` after `detlint::allow`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `detlint::allow(…)` pragma".to_string());
    };
    let (args, tail) = (&rest[..close], &rest[close + 1..]);
    let (rule_name, reason_part) = match args.split_once(',') {
        Some((rule, reason)) => (rule.trim(), Some(reason.trim())),
        None => (args.trim(), None),
    };
    let Some(rule) = Rule::from_id(rule_name) else {
        return Err(format!(
            "unknown rule `{rule_name}` (see `selfsim-detlint --rules` for the catalogue)"
        ));
    };
    let Some(reason_part) = reason_part else {
        return Err(format!(
            "pragma for `{rule_name}` is missing the required `reason = \"…\"`"
        ));
    };
    let Some(reason) = reason_part
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'))
    else {
        return Err(format!(
            "pragma for `{rule_name}`: expected `reason = \"…\"`, got `{reason_part}`"
        ));
    };
    if reason.trim().is_empty() {
        return Err(format!(
            "pragma for `{rule_name}` has an empty reason — say why the site is sanctioned"
        ));
    }
    Ok((
        Pragma {
            rule,
            file_wide,
            line,
        },
        tail,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(text: &str) -> Vec<Comment> {
        vec![Comment {
            line: 3,
            end_line: 3,
            text: text.to_string(),
            doc: false,
        }]
    }

    #[test]
    fn well_formed_pragma_parses() {
        let (pragmas, errors) = parse_pragmas(&comment(
            "// detlint::allow(seed-provenance, reason = \"seed-independent output\")",
        ));
        assert!(errors.is_empty());
        assert_eq!(
            pragmas,
            [Pragma {
                rule: Rule::SeedProvenance,
                file_wide: false,
                line: 3
            }]
        );
    }

    #[test]
    fn file_wide_variant_parses() {
        let (pragmas, errors) = parse_pragmas(&comment(
            "// detlint::allow-file(stray-print, reason = \"this is the CLI surface\")",
        ));
        assert!(errors.is_empty());
        assert!(pragmas[0].file_wide);
        assert_eq!(pragmas[0].rule, Rule::StrayPrint);
    }

    #[test]
    fn missing_reason_is_rejected() {
        let (pragmas, errors) = parse_pragmas(&comment("// detlint::allow(ambient-rng)"));
        assert!(pragmas.is_empty());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("missing the required"));
    }

    #[test]
    fn empty_reason_is_rejected() {
        let (pragmas, errors) =
            parse_pragmas(&comment("// detlint::allow(ambient-rng, reason = \"  \")"));
        assert!(pragmas.is_empty());
        assert!(errors[0].message.contains("empty reason"));
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let (pragmas, errors) =
            parse_pragmas(&comment("// detlint::allow(no-such-rule, reason = \"x\")"));
        assert!(pragmas.is_empty());
        assert!(errors[0].message.contains("unknown rule `no-such-rule`"));
    }

    #[test]
    fn doc_comments_never_carry_pragmas() {
        let mut comments = comment("/// detlint::allow(ambient-rng)");
        comments[0].doc = true;
        let (pragmas, errors) = parse_pragmas(&comments);
        assert!(pragmas.is_empty() && errors.is_empty());
    }
}
