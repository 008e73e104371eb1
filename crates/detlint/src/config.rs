//! `detlint.toml` — the committed lint configuration.
//!
//! A deliberately tiny TOML subset (sections, integer values, `#`
//! comments) parsed by hand: the lint must not depend on anything it
//! lints, vendored stand-ins included.  Unknown sections or keys are
//! *errors*, so a typo'd budget can't silently stop ratcheting.
//!
//! ```toml
//! [panic_budget]
//! campaign = 6   # may only go DOWN
//! ```

use std::collections::BTreeMap;

/// Parsed configuration; `Default` is the empty config (no budgets).
/// Crates are named by directory name under `crates/`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Per-crate `panic!`/`unreachable!`/`[idx]` ceilings for
    /// `panic-ratchet`.
    pub panic_budget: BTreeMap<String, u64>,
}

impl Config {
    /// Parses the `detlint.toml` subset; errors name the offending line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut in_budget = false;
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split_once('#').map_or(raw, |(code, _)| code).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if name != "panic_budget" {
                    return Err(format!("detlint.toml:{}: unknown section [{name}]", n + 1));
                }
                in_budget = true;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("detlint.toml:{}: expected `key = value`", n + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            if !in_budget {
                return Err(format!(
                    "detlint.toml:{}: unknown key `{key}` outside [panic_budget]",
                    n + 1
                ));
            }
            let budget = value.parse::<u64>().map_err(|_| {
                format!(
                    "detlint.toml:{}: budget for `{key}` is not an integer: `{value}`",
                    n + 1
                )
            })?;
            if config
                .panic_budget
                .insert(key.to_string(), budget)
                .is_some()
            {
                return Err(format!(
                    "detlint.toml:{}: duplicate budget for `{key}`",
                    n + 1
                ));
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_sections() {
        // Comment header, trailing comments, blank lines, and the section
        // reopened: its budgets accumulate.
        let config = Config::parse(
            "# header\n[panic_budget]\ncampaign = 6 # ratchet\n\n[panic_budget]\ntrace = 3\n",
        )
        .expect("valid config");
        assert_eq!(config.panic_budget.get("campaign"), Some(&6));
        assert_eq!(config.panic_budget.get("trace"), Some(&3));
        assert_eq!(config.panic_budget.len(), 2);
    }

    #[test]
    fn unknown_sections_and_keys_are_errors() {
        assert!(Config::parse("[panic_budgt]\n")
            .expect_err("typo")
            .contains("unknown section"));
        // clippy.toml owns the clock, hash-collection and `.unwrap()`
        // bans, so a section for any of them is unknown here.
        for section in ["[wall_clock]\n", "[unwrap_budget]\n"] {
            assert!(Config::parse(section)
                .expect_err("clippy's ban")
                .contains("unknown section"));
        }
        assert!(Config::parse("campaign = 3\n")
            .expect_err("no section")
            .contains("unknown key"));
    }

    #[test]
    fn non_integer_budget_and_duplicates_are_errors() {
        assert!(Config::parse("[panic_budget]\ncampaign = many\n")
            .expect_err("nan")
            .contains("not an integer"));
        assert!(Config::parse("[panic_budget]\na = 1\na = 2\n")
            .expect_err("dup")
            .contains("duplicate budget"));
    }
}
