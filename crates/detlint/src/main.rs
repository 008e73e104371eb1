//! The `selfsim-detlint` CLI.
//!
//! ```text
//! cargo run -p selfsim-detlint -- --workspace            # lint the tree
//! cargo run -p selfsim-detlint -- --format json FILE…    # lint files
//! cargo run -p selfsim-detlint -- --rules                # rule catalogue
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage/configuration error.

#![expect(
    clippy::disallowed_macros,
    reason = "a CLI: its report, usage and errors on stdio are its contract"
)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use selfsim_detlint::{lint_files, lint_named_sources, lint_workspace, Rule};

const USAGE: &str = "\
selfsim-detlint — static determinism-contract lint

USAGE:
    selfsim-detlint --workspace [--root DIR] [--format human|json]
    selfsim-detlint [--format human|json] FILE.rs…
    selfsim-detlint --bless [--root DIR]
    selfsim-detlint --rules

OPTIONS:
    --workspace        lint the workspace (root src/ + every crates/*/src/),
                       applying detlint.toml's panic budgets
    --root DIR         workspace root (default: current directory)
    --format FMT       `human` (default) or `json`
    --bless            re-lint fixtures/violations.rs and rewrite the golden
                       JSON at crates/detlint/tests/golden_violations.json
    --rules            print the rule catalogue and exit
    -h, --help         this help

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
";

/// Root-relative fixture/golden paths `--bless` reads and writes.
const FIXTURE: &str = "crates/detlint/fixtures/violations.rs";
const GOLDEN: &str = "crates/detlint/tests/golden_violations.json";

struct Args {
    workspace: bool,
    root: PathBuf,
    json: bool,
    rules: bool,
    bless: bool,
    files: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        json: false,
        rules: false,
        bless: false,
        files: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--rules" => args.rules = true,
            "--bless" => args.bless = true,
            "--root" => {
                args.root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a directory".to_string())?,
                );
            }
            "--format" => {
                match it
                    .next()
                    .ok_or_else(|| "--format needs `human` or `json`".to_string())?
                    .as_str()
                {
                    "human" => args.json = false,
                    "json" => args.json = true,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "-h" | "--help" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if !args.rules && !args.workspace && !args.bless && args.files.is_empty() {
        return Err("nothing to lint: pass --workspace, --bless or file paths".to_string());
    }
    if args.workspace && !args.files.is_empty() {
        return Err("--workspace and explicit files are mutually exclusive".to_string());
    }
    if args.bless && (args.workspace || !args.files.is_empty()) {
        return Err("--bless takes no other lint targets".to_string());
    }
    Ok(args)
}

/// Re-blesses the golden JSON: lints the violation fixture exactly the
/// way explicit-file mode does (root-relative label, so the report is
/// position-independent) and rewrites the committed golden file.
fn bless(root: &Path) -> Result<(), String> {
    let fixture_path = root.join(FIXTURE);
    let src = std::fs::read_to_string(&fixture_path)
        .map_err(|e| format!("cannot read {}: {e}", fixture_path.display()))?;
    let report = lint_named_sources(&[(FIXTURE.to_string(), src)]);
    let golden_path = root.join(GOLDEN);
    let mut json = report.render_json();
    json.push('\n');
    std::fs::write(&golden_path, &json)
        .map_err(|e| format!("cannot write {}: {e}", golden_path.display()))?;
    println!(
        "blessed {} ({} findings from {})",
        GOLDEN,
        report.findings.len(),
        FIXTURE
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) if message.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.rules {
        for rule in Rule::ALL {
            println!("{:<22} {}", rule.id(), rule.describe());
        }
        return ExitCode::SUCCESS;
    }

    if args.bless {
        return match bless(&args.root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        };
    }

    let result = if args.workspace {
        lint_workspace(&args.root)
    } else {
        lint_files(&args.files)
    };
    let report = match result {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
