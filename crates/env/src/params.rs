//! The shared `name(k=v,k2=v2)` label grammar.
//!
//! Every parameterised dimension of a campaign grid — environment models,
//! topology families, execution modes, delivery rules — emits its cell
//! identity as a label of this shape (`churn(e=0.5,a=0.9)`,
//! `random(p=0.15)`, `async(i=0.5,l=3,d=0,dv=any-overlap(g=4))`).  This
//! module is the one parser for that grammar, so the *round-trip law*
//! (`parse(label(x)) == x`) holds by construction wherever a label lands —
//! a JSONL record's `environment` column can be fed straight back to
//! `--envs` to re-run exactly that cell.
//!
//! The grammar:
//!
//! ```text
//! label  := name | name "(" pairs ")"
//! pairs  := pair ("," pair)*
//! pair   := key "=" value        // value may itself be a label
//! ```
//!
//! Values are split on commas at parenthesis depth zero, so nested labels
//! (`dv=any-overlap(g=4)`) parse as one value.  [`Params`] hands the pairs
//! to a consumer with *named-field* errors — unknown keys, duplicate keys,
//! unparseable numbers and out-of-range probabilities all name the
//! offending parameter, in the style of `selfsim_runtime::AsyncKnobs::new`.

use std::fmt::Display;
use std::str::FromStr;

/// The parsed parameter list of one label: `(key, value)` pairs in source
/// order, consumed by the `take_*` methods and closed out by
/// [`Params::finish`], which rejects whatever was not consumed (unknown
/// keys).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Params {
    /// The label's name part, kept for error messages.
    context: String,
    pairs: Vec<(String, String)>,
}

/// Splits a label into its name and its [`Params`].
///
/// A bare `name` yields empty params; `name(...)` must close its
/// parenthesis and contain `key=value` pairs.  Duplicate keys are rejected
/// here, once, for every consumer.
///
/// ```
/// use selfsim_env::params::parse_label;
///
/// let (name, params) = parse_label("churn(e=0.5,a=0.9)").expect("well-formed label");
/// assert_eq!(name, "churn");
/// assert!(!params.is_empty());
/// let (name, params) = parse_label("static").expect("well-formed label");
/// assert_eq!(name, "static");
/// assert!(params.is_empty());
/// ```
pub fn parse_label(label: &str) -> Result<(&str, Params), String> {
    let label = label.trim();
    let Some(open) = label.find('(') else {
        if label.contains(')') {
            return Err(format!("malformed label `{label}`: `)` without `(`"));
        }
        if label.is_empty() {
            return Err("empty label".into());
        }
        return Ok((label, Params::bare(label)));
    };
    let name = &label[..open];
    if name.is_empty() {
        return Err(format!(
            "malformed label `{label}`: missing name before `(`"
        ));
    }
    let Some(inner) = label[open + 1..].strip_suffix(')') else {
        return Err(format!("malformed label `{label}`: missing closing `)`"));
    };
    let mut params = Params::bare(name);
    for pair in split_top_level(inner) {
        let pair = pair.trim();
        if pair.is_empty() {
            return Err(format!("malformed label `{label}`: empty parameter"));
        }
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!(
                "malformed label `{label}`: parameter `{pair}` is not `key=value`"
            ));
        };
        let (key, value) = (key.trim(), value.trim());
        if key.is_empty() || value.is_empty() {
            return Err(format!(
                "malformed label `{label}`: parameter `{pair}` is not `key=value`"
            ));
        }
        if params.pairs.iter().any(|(k, _)| k == key) {
            return Err(format!(
                "malformed label `{label}`: duplicate parameter `{key}`"
            ));
        }
        params.pairs.push((key.to_string(), value.to_string()));
    }
    Ok((name, params))
}

/// Splits `s` on commas at parenthesis depth zero, so a value that is
/// itself a parameterised label (`dv=any-overlap(g=4)`) stays whole —
/// also what comma-separated *lists of labels* must split with
/// (`churn(e=0.3,a=0.8),static` is two labels, not three):
///
/// ```
/// use selfsim_env::params::split_top_level;
///
/// assert_eq!(
///     split_top_level("churn(e=0.3,a=0.8),static"),
///     vec!["churn(e=0.3,a=0.8)", "static"],
/// );
/// ```
pub fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !s.is_empty() || start > 0 {
        out.push(&s[start..]);
    }
    out
}

impl Params {
    /// Empty params under the given context name (used in error messages).
    pub fn bare(context: &str) -> Self {
        Params {
            context: context.to_string(),
            pairs: Vec::new(),
        }
    }

    /// `true` when no parameters were given (a bare label).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Takes the raw string value of `key`, if present.
    pub fn take_str(&mut self, key: &str) -> Option<String> {
        let index = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(index).1)
    }

    /// Takes and parses the value of `key` as a `T`, naming the parameter
    /// on a parse failure.  Absent keys yield `Ok(None)` so callers keep
    /// their defaults.
    pub fn take<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let Some(value) = self.take_str(key) else {
            return Ok(None);
        };
        value.parse::<T>().map(Some).map_err(|e| {
            format!(
                "`{}`: parameter `{key}` has malformed value `{value}`: {e}",
                self.context
            )
        })
    }

    /// Like [`Params::take`] for a probability: the value must parse as a
    /// float *and* lie in `[0, 1]`, with the field named either way.
    pub fn take_probability(&mut self, key: &str) -> Result<Option<f64>, String> {
        match self.take::<f64>(key)? {
            None => Ok(None),
            Some(p) if (0.0..=1.0).contains(&p) => Ok(Some(p)),
            Some(p) => Err(format!(
                "`{}`: parameter `{key}` must be a probability in [0, 1], got {p}",
                self.context
            )),
        }
    }

    /// Like [`Params::take`] for a positive integer (zero rejected with
    /// the field named).
    pub fn take_positive(&mut self, key: &str) -> Result<Option<usize>, String> {
        match self.take::<usize>(key)? {
            Some(0) => Err(format!(
                "`{}`: parameter `{key}` must be at least 1",
                self.context
            )),
            other => Ok(other),
        }
    }

    /// Closes out consumption: errors if any parameter was not taken,
    /// naming the unknown keys and the keys the consumer understands.
    pub fn finish(self, known: &[&str]) -> Result<(), String> {
        if self.pairs.is_empty() {
            return Ok(());
        }
        let unknown: Vec<&str> = self.pairs.iter().map(|(k, _)| k.as_str()).collect();
        Err(format!(
            "`{}`: unknown parameter{} {} (expected {})",
            self.context,
            if unknown.len() > 1 { "s" } else { "" },
            unknown.join(", "),
            if known.is_empty() {
                "no parameters".to_string()
            } else {
                known.join(", ")
            },
        ))
    }
}

/// Validates that `value` is a probability, naming `field` on failure —
/// the construction-time counterpart of [`Params::take_probability`],
/// shared by the environment constructors.
pub fn validate_probability(field: &str, value: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(format!(
            "{field} must be a probability in [0, 1], got {value}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_labels_have_no_params() {
        let (name, params) = parse_label("static").expect("bare label parses");
        assert_eq!(name, "static");
        assert!(params.is_empty());
        params.finish(&[]).expect("no params to reject");
    }

    #[test]
    fn parameterised_labels_split_into_pairs() {
        let (name, mut params) = parse_label("churn(e=0.5,a=0.9)").expect("well-formed label");
        assert_eq!(name, "churn");
        assert_eq!(
            params.take_probability("e").expect("0.5 is a probability"),
            Some(0.5)
        );
        assert_eq!(
            params.take_probability("a").expect("0.9 is a probability"),
            Some(0.9)
        );
        params.finish(&["e", "a"]).expect("both keys were taken");
    }

    #[test]
    fn nested_labels_stay_whole() {
        let (name, mut params) =
            parse_label("async(i=0.5,l=3,d=0,dv=any-overlap(g=4))").expect("well-formed label");
        assert_eq!(name, "async");
        assert_eq!(params.take::<f64>("i").expect("0.5 is an f64"), Some(0.5));
        assert_eq!(params.take::<usize>("l").expect("3 is a usize"), Some(3));
        assert_eq!(params.take::<f64>("d").expect("0 is an f64"), Some(0.0));
        assert_eq!(params.take_str("dv"), Some("any-overlap(g=4)".into()));
        params
            .finish(&["i", "l", "d", "dv"])
            .expect("all keys were taken");
    }

    #[test]
    fn malformed_labels_are_rejected_with_the_shape_named() {
        for (label, needle) in [
            ("churn(e=0.5", "missing closing"),
            ("churn(e)", "not `key=value`"),
            ("churn(=0.5)", "not `key=value`"),
            ("churn(e=)", "not `key=value`"),
            ("(e=1)", "missing name"),
            ("churn)", "`)` without `(`"),
            ("churn(e=1,e=2)", "duplicate parameter `e`"),
            ("churn(,)", "empty parameter"),
            ("", "empty label"),
        ] {
            let err = parse_label(label).unwrap_err();
            assert!(err.contains(needle), "{label}: {err}");
        }
    }

    #[test]
    fn take_names_the_field_on_bad_values() {
        let (_, mut params) =
            parse_label("churn(e=banana)").expect("the label itself is well-formed");
        let err = params.take_probability("e").unwrap_err();
        assert!(err.contains("`churn`"), "{err}");
        assert!(err.contains("`e`"), "{err}");
        assert!(err.contains("banana"), "{err}");

        let (_, mut params) = parse_label("churn(e=1.5)").expect("the label itself is well-formed");
        let err = params.take_probability("e").unwrap_err();
        assert!(err.contains("probability in [0, 1]"), "{err}");
        assert!(err.contains("1.5"), "{err}");

        let (_, mut params) =
            parse_label("partition(b=0)").expect("the label itself is well-formed");
        let err = params.take_positive("b").unwrap_err();
        assert!(err.contains("`b` must be at least 1"), "{err}");
    }

    #[test]
    fn finish_rejects_unknown_keys_and_lists_the_known_ones() {
        let (_, mut params) = parse_label("churn(e=0.5,q=1)").expect("well-formed label");
        let _ = params.take_probability("e").expect("0.5 is a probability");
        let err = params.finish(&["e", "a"]).unwrap_err();
        assert!(err.contains("unknown parameter q"), "{err}");
        assert!(err.contains("expected e, a"), "{err}");
    }

    #[test]
    fn validate_probability_names_the_field() {
        assert_eq!(validate_probability("p_edge", 0.5), Ok(0.5));
        let err = validate_probability("p_edge", -0.1).unwrap_err();
        assert!(err.contains("p_edge"), "{err}");
        assert!(err.contains("-0.1"), "{err}");
    }

    #[test]
    fn float_display_round_trips_through_the_grammar() {
        // Rust's shortest-round-trip float formatting is what makes the
        // label round-trip law hold for probability parameters.
        for p in [0.0, 0.1, 0.3, 1.0, 0.123_456_789, f64::MIN_POSITIVE] {
            let label = format!("churn(e={p})");
            let (_, mut params) = parse_label(&label).expect("formatted label parses");
            assert_eq!(
                params.take::<f64>("e").expect("round-trip f64"),
                Some(p),
                "{label}"
            );
        }
    }
}
