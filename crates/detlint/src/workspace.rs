//! Workspace discovery and the two lint drivers.
//!
//! `--workspace` walks the root package's `src/` plus every
//! `crates/*/src/` tree (sorted, so reports are byte-stable) and folds
//! panic-surface counts per crate into the ratchet, against the budgets
//! in `detlint.toml`.  Explicit-file mode lints the
//! arguments with every file rule and no crate attribution — that is
//! what the CI negative self-test runs over the committed violation
//! fixture, and what the CI `examples/`/`tests/` sweep uses.
//!
//! Scope notes: crate-local `tests/`, `examples/`, `benches/` and
//! `vendor/` are not walked — the contract binds the *library and
//! binary* code that produces record bytes.  `src/main.rs` and
//! `src/bin/**` are scanned, but `seed-provenance` and `panic-ratchet`
//! do not apply there (a binary owns its demo seeds and its exits).  In
//! explicit-file mode, paths under `examples/` count as binary roots and
//! paths under `tests/` as test code.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::report::{Finding, Report, Tally};
use crate::rules::{check_file, FileContext, Rule};

/// Lints the whole workspace rooted at `root` (the directory holding
/// `Cargo.toml`, `detlint.toml` and `crates/`).
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let config_path = root.join("detlint.toml");
    let config = if config_path.is_file() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
        Config::parse(&text)?
    } else {
        Config::default()
    };

    let mut report = Report::default();
    let mut panic_counts: BTreeMap<String, u64> = BTreeMap::new();

    for (krate, src_dir) in discover_crates(root)? {
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)
            .map_err(|e| format!("walking {}: {e}", src_dir.display()))?;
        files.sort();
        let panics = panic_counts.entry(krate.clone()).or_insert(0);
        for path in files {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let label = rel_label(root, &path);
            let ctx = FileContext {
                is_binary_root: is_binary_root(&src_dir, &path),
                is_test_code: false,
            };
            let file_report = check_file(&label, &src, &ctx);
            report.findings.extend(file_report.findings);
            *panics += file_report.panic_count;
            report.files_scanned += 1;
        }
    }

    ratchet(&config.panic_budget, &panic_counts, &mut report);
    report.sort();
    Ok(report)
}

/// Lints explicit file paths (no config, no crate attribution).
pub fn lint_files(paths: &[PathBuf]) -> Result<Report, String> {
    let mut sources = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push((path.to_string_lossy().replace('\\', "/"), src));
    }
    Ok(lint_named_sources(&sources))
}

/// The explicit-mode driver proper, shared by [`lint_files`], the
/// `--bless` flag and the golden test: lints `(label, source)` pairs,
/// contexts derived from the label.
pub fn lint_named_sources(sources: &[(String, String)]) -> Report {
    let mut report = Report::default();
    for (name, src) in sources {
        let ctx = context_for_label(name);
        let file_report = check_file(name, src, &ctx);
        report.findings.extend(file_report.findings);
        // No crate attribution here, so the panic ratchet binds per
        // file: any library-code panic surface must be budgeted, and
        // explicit mode has no budgets to give.
        if file_report.panic_count > 0 {
            report.findings.push(Finding {
                rule: Rule::PanicRatchet,
                file: name.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "{} panic-surface site{} (`panic!`/`unreachable!`/`[idx]` indexing) in \
                     library code — return errors instead, or budget the crate under \
                     `[panic_budget]` in detlint.toml",
                    file_report.panic_count,
                    if file_report.panic_count == 1 {
                        ""
                    } else {
                        "s"
                    },
                ),
            });
        }
        report.files_scanned += 1;
    }
    report.sort();
    report
}

/// How explicit-file mode classifies a path: `examples/` are binaries
/// (they own their demo seeds and exits), `tests/` are test code (fixed
/// seeds and panics are their own business).
fn context_for_label(name: &str) -> FileContext {
    FileContext {
        is_binary_root: name.ends_with("src/main.rs")
            || name.contains("/bin/")
            || name.starts_with("examples/")
            || name.contains("/examples/"),
        is_test_code: name.starts_with("tests/") || name.contains("/tests/"),
    }
}

/// Applies the panic budget: a budget must equal its crate's count, so
/// over budget, under budget (the ratchet-down is due) and
/// unbudgeted-with-sites are each a finding.
fn ratchet(budgets: &BTreeMap<String, u64>, counts: &BTreeMap<String, u64>, report: &mut Report) {
    const WHAT: &str = "panic-surface sites (`panic!`/`unreachable!`/`[idx]`)";
    for (krate, &count) in counts {
        let budget = budgets.get(krate).copied();
        report
            .panic_tallies
            .insert(krate.clone(), Tally { count, budget });
        let anchor = if krate == "self_similar" {
            "src".to_string()
        } else {
            format!("crates/{krate}")
        };
        match budget {
            Some(budget) if count > budget => report.findings.push(Finding {
                rule: Rule::PanicRatchet,
                file: anchor,
                line: 0,
                col: 0,
                message: format!(
                    "{count} {WHAT}, budget {budget} — return errors or document the \
                     invariant and re-budget; budgets only go down"
                ),
            }),
            Some(budget) if count < budget => report.findings.push(Finding {
                rule: Rule::PanicRatchet,
                file: anchor,
                line: 0,
                col: 0,
                message: format!(
                    "{count} {WHAT}, budget {budget} — ratchet `{krate} = {count}` into \
                     `[panic_budget]` in detlint.toml"
                ),
            }),
            Some(_) => {}
            None if count > 0 => report.findings.push(Finding {
                rule: Rule::PanicRatchet,
                file: anchor,
                line: 0,
                col: 0,
                message: format!(
                    "{count} {WHAT} but no `[panic_budget]` entry for `{krate}` in detlint.toml"
                ),
            }),
            None => {}
        }
    }
    // A stale budget (crate renamed or removed) would silently stop
    // ratcheting; surface it.
    for krate in budgets.keys() {
        if !counts.contains_key(krate) {
            report.findings.push(Finding {
                rule: Rule::PanicRatchet,
                file: "detlint.toml".to_string(),
                line: 0,
                col: 0,
                message: format!(
                    "`[panic_budget]` entry for `{krate}` names no crate in this workspace"
                ),
            });
        }
    }
}

/// `(crate name, src dir)` for the root package and every `crates/*`
/// member, sorted by name.  Crate names are the directory names —
/// `crates/campaign`, not `selfsim-campaign` — matching `detlint.toml`.
fn discover_crates(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        out.push(("self_similar".to_string(), root_src));
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("reading {}: {e}", crates.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for dir in entries {
            let src = dir.join("src");
            if src.is_dir() {
                let name = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .ok_or_else(|| format!("unnameable crate dir {}", dir.display()))?;
                out.push((name, src));
            }
        }
    }
    if out.is_empty() {
        return Err(format!(
            "no crates found under {} — is this the workspace root?",
            root.display()
        ));
    }
    out.sort();
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn is_binary_root(src_dir: &Path, path: &Path) -> bool {
    path == src_dir.join("main.rs") || path.starts_with(src_dir.join("bin"))
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_budget_and_unbudgeted_crates_are_findings() {
        let config = Config::parse("[panic_budget]\na = 1\nstale = 5\n").expect("config");
        let counts = BTreeMap::from([
            ("a".to_string(), 3u64),
            ("b".to_string(), 2),
            ("c".to_string(), 0),
        ]);
        let mut report = Report::default();
        ratchet(&config.panic_budget, &counts, &mut report);
        report.sort();
        let anchors: Vec<(&str, Rule)> = report
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.rule))
            .collect();
        assert_eq!(
            anchors,
            [
                ("crates/a", Rule::PanicRatchet),     // 3 > 1
                ("crates/b", Rule::PanicRatchet),     // no budget
                ("detlint.toml", Rule::PanicRatchet)  // stale entry
            ]
        );
        assert!(report.findings[1].message.contains("[panic_budget]"));
        assert_eq!(report.panic_tallies.len(), 3);
    }

    #[test]
    fn headroom_is_a_finding_naming_the_new_budget() {
        let config = Config::parse("[panic_budget]\na = 9\nb = 4\n").expect("config");
        let counts = BTreeMap::from([("a".to_string(), 4u64), ("b".to_string(), 4)]);
        let mut report = Report::default();
        ratchet(&config.panic_budget, &counts, &mut report);
        assert_eq!(report.findings.len(), 1, "an exact budget is clean");
        assert_eq!(report.findings[0].rule, Rule::PanicRatchet);
        assert_eq!(report.findings[0].file, "crates/a");
        assert!(report.findings[0].message.contains("`a = 4`"));
    }

    #[test]
    fn explicit_mode_classifies_examples_and_tests_by_path() {
        let example = context_for_label("examples/quickstart.rs");
        assert!(example.is_binary_root && !example.is_test_code);
        let test = context_for_label("tests/campaign.rs");
        assert!(test.is_test_code && !test.is_binary_root);
        let fixture = context_for_label("crates/detlint/fixtures/violations.rs");
        assert!(!fixture.is_binary_root && !fixture.is_test_code);
    }
}
