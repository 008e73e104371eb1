//! `detlint.toml` — the committed lint configuration.
//!
//! A deliberately tiny TOML subset (sections, integer values, `#`
//! comments) parsed by hand: the lint must not depend on anything it
//! lints, vendored stand-ins included.  Unknown sections or keys are
//! *errors*, so a typo'd budget can't silently stop ratcheting.
//!
//! ```toml
//! [unwrap_budget]
//! campaign = 35   # may only go DOWN
//!
//! [panic_budget]
//! campaign = 6
//! ```

use std::collections::BTreeMap;

/// Parsed configuration; `Default` is the empty config (no budgets).
/// Crates are named by directory name under `crates/`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Per-crate `.unwrap()` ceilings for `unwrap-ratchet`.
    pub unwrap_budget: BTreeMap<String, u64>,
    /// Per-crate `panic!`/`unreachable!`/`[idx]` ceilings for
    /// `panic-ratchet`.
    pub panic_budget: BTreeMap<String, u64>,
}

impl Config {
    /// Parses the `detlint.toml` subset; errors name the offending line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section = String::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split_once('#').map_or(raw, |(code, _)| code).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "unwrap_budget" | "panic_budget" => {}
                    other => {
                        return Err(format!("detlint.toml:{}: unknown section [{other}]", n + 1))
                    }
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("detlint.toml:{}: expected `key = value`", n + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            match (section.as_str(), key) {
                (section @ ("unwrap_budget" | "panic_budget"), crate_name) => {
                    let budget = value.parse::<u64>().map_err(|_| {
                        format!(
                            "detlint.toml:{}: budget for `{crate_name}` is not an integer: `{value}`",
                            n + 1
                        )
                    })?;
                    let map = if section == "unwrap_budget" {
                        &mut config.unwrap_budget
                    } else {
                        &mut config.panic_budget
                    };
                    if map.insert(crate_name.to_string(), budget).is_some() {
                        return Err(format!(
                            "detlint.toml:{}: duplicate budget for `{crate_name}`",
                            n + 1
                        ));
                    }
                }
                (section, key) => {
                    return Err(format!(
                        "detlint.toml:{}: unknown key `{key}` in section [{section}]",
                        n + 1
                    ));
                }
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
        // Comment header, trailing comments, blank lines, and a section
        // reopened after another one: its budgets accumulate.
        let config = Config::parse(
            "# header\n[unwrap_budget]\ncampaign = 35 # ratchet\n\n[panic_budget]\ncampaign = 6\n\n[unwrap_budget]\ntrace = 3\n",
        )
        .expect("valid config");
        assert_eq!(config.unwrap_budget.get("campaign"), Some(&35));
        assert_eq!(config.unwrap_budget.get("trace"), Some(&3));
        assert_eq!(config.panic_budget.get("campaign"), Some(&6));
        assert_eq!(config.panic_budget.len(), 1);
    }

    #[test]
    fn panic_budget_parses_like_unwrap_budget() {
        let config = Config::parse("[panic_budget]\nruntime = 4\n\n[unwrap_budget]\nruntime = 7\n")
            .expect("valid config");
        assert_eq!(config.panic_budget.get("runtime"), Some(&4));
        assert_eq!(config.unwrap_budget.get("runtime"), Some(&7));
        assert!(Config::parse("[panic_budget]\na = 1\na = 2\n")
            .expect_err("dup")
            .contains("duplicate budget"));
    }

    #[test]
    fn unknown_sections_and_keys_are_errors() {
        assert!(Config::parse("[unwrap_budgt]\n")
            .expect_err("typo")
            .contains("unknown section"));
        // clippy.toml owns the clock and hash-collection bans, so a
        // section for either is unknown here.
        assert!(Config::parse("[wall_clock]\n")
            .expect_err("clippy's ban")
            .contains("unknown section"));
        assert!(Config::parse("campaign = 3\n")
            .expect_err("no section")
            .contains("unknown key"));
    }

    #[test]
    fn non_integer_budget_and_duplicates_are_errors() {
        assert!(Config::parse("[unwrap_budget]\ncampaign = many\n")
            .expect_err("nan")
            .contains("not an integer"));
        assert!(Config::parse("[unwrap_budget]\na = 1\na = 2\n")
            .expect_err("dup")
            .contains("duplicate budget"));
    }
}
