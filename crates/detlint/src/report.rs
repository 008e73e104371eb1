//! Report model and the two output formats.
//!
//! Ordering is part of the contract: findings sort by
//! `(file, line, col, rule)` and the JSON serialization is
//! hand-emitted with sorted keys, so a report is byte-stable for a given
//! tree — the golden test in `tests/detlint.rs` pins it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rules::Rule;

/// One lint violation, anchored to a `file:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    /// 1-based; 0 for crate-level findings (e.g. `unwrap-ratchet`).
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// A crate's tally against a committed budget (`.unwrap()` sites for
/// `unwrap-ratchet`, panic-surface sites for `panic-ratchet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnwrapTally {
    pub count: u64,
    /// `None`: no budget entry for this crate.
    pub budget: Option<u64>,
}

/// The full result of a lint run (workspace or explicit files).
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Per-crate tallies — empty in explicit-file mode, where crate
    /// attribution (and thus the ratchet) doesn't apply.
    pub unwrap_tallies: BTreeMap<String, UnwrapTally>,
    /// Per-crate `panic!`/`unreachable!`/`[idx]` tallies against
    /// `[panic_budget]` — empty in explicit-file mode.
    pub panic_tallies: BTreeMap<String, UnwrapTally>,
    /// Non-failing observations (e.g. ratchet headroom).
    pub notes: Vec<String>,
}

impl Report {
    /// Canonical ordering: `(file, line, col, rule)`.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
    }

    /// Exit code the CLI maps this report to.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.line == 0 {
                let _ = writeln!(out, "{}: {}: {}", f.file, f.rule.id(), f.message);
            } else {
                let _ = writeln!(
                    out,
                    "{}:{}:{}: {}: {}",
                    f.file,
                    f.line,
                    f.col,
                    f.rule.id(),
                    f.message
                );
            }
        }
        for (title, tallies) in [
            ("unwrap budgets:", &self.unwrap_tallies),
            ("panic budgets:", &self.panic_tallies),
        ] {
            if tallies.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}");
            for (krate, tally) in tallies {
                match tally.budget {
                    Some(budget) => {
                        let _ = writeln!(out, "  {krate}: {}/{budget}", tally.count);
                    }
                    None => {
                        let _ = writeln!(out, "  {krate}: {} (no budget)", tally.count);
                    }
                }
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        let _ = writeln!(
            out,
            "detlint: {} finding{} in {} file{}",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.files_scanned,
            if self.files_scanned == 1 { "" } else { "s" },
        );
        out
    }

    /// The machine-readable report (`--format json`), one stable line.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{}}}",
                json_string(f.rule.id()),
                json_string(&f.file),
                f.line,
                f.col,
                json_string(&f.message)
            );
        }
        let _ = write!(out, "],\"files_scanned\":{}", self.files_scanned);
        for (key, tallies) in [
            ("unwrap_budgets", &self.unwrap_tallies),
            ("panic_budgets", &self.panic_tallies),
        ] {
            let _ = write!(out, ",\"{key}\":{{");
            for (i, (krate, tally)) in tallies.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{{\"count\":{}", json_string(krate), tally.count);
                if let Some(budget) = tally.budget {
                    let _ = write!(out, ",\"budget\":{budget}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str(",\"notes\":[");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(note));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_sort_by_file_line_col_rule() {
        let mut report = Report::default();
        let f = |file: &str, line, rule| Finding {
            rule,
            file: file.to_string(),
            line,
            col: 1,
            message: "m".to_string(),
        };
        report.findings = vec![
            f("b.rs", 1, Rule::AddrAsKey),
            f("a.rs", 9, Rule::StrayPrint),
            f("a.rs", 2, Rule::AmbientRng),
        ];
        report.sort();
        let order: Vec<(&str, u32)> = report
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.line))
            .collect();
        assert_eq!(order, [("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]);
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn crate_level_findings_render_without_spans() {
        let mut report = Report::default();
        report.findings.push(Finding {
            rule: Rule::UnwrapRatchet,
            file: "crates/campaign".to_string(),
            line: 0,
            col: 0,
            message: "over budget".to_string(),
        });
        report.files_scanned = 1;
        let human = report.render_human();
        assert!(human.contains("crates/campaign: unwrap-ratchet: over budget"));
        assert!(!human.contains(":0:0:"));
    }
}
