//! `selfsim-detlint` — a workspace lint that statically enforces the
//! determinism contract.
//!
//! Every scale mechanism in this workspace (thread pools, `--shard`
//! splitting, resumable merges) rests on one invariant: **campaign output
//! is byte-identical across `--threads` and `--shard` splits**.  The
//! dynamic gates (CI `cmp` jobs, the `obs_offpath` fixture) catch a
//! violation after it runs; this crate catches the *source patterns that
//! cause them* before any trial executes:
//!
//! * [`rules`] — the catalogue: `ambient-rng`, `addr-as-key`,
//!   `invalid-pragma`, `seed-provenance`, `panic-ratchet` (see the table
//!   in the module docs);
//! * [`lexer`] — the hand-rolled, comment/string/raw-string-aware token
//!   scanner the rules match over (resolution-free: there is no `syn` in
//!   `vendor/`, and none is needed);
//! * [`parser`] — the item-tree layer over the lexer: fns with
//!   parameters and body spans, and `#[cfg(test)]` mod ranges —
//!   structure for the rules that need it;
//! * [`pragma`] — in-place exemptions:
//!   `// detlint::allow(rule, reason = "…")` with a *required* non-empty
//!   reason (`detlint::allow-file` for whole-file sanctions);
//! * [`config`] — the committed `detlint.toml`: per-crate panic-surface
//!   budgets that equal the counts and may only go down;
//! * [`workspace`] — the `--workspace` walker and explicit-file driver;
//! * [`report`] — byte-stable human and `--format json` reports.
//!
//! The binary exits `0` on a clean tree, `1` on findings, `2` on usage
//! or I/O errors — CI runs it as the `static-analysis` job.  Each
//! determinism rule has one enforcer: the bans that need name resolution
//! (the wall clock, hash collections, stray prints and `todo!`,
//! `.unwrap()`) belong to the workspace `clippy.toml`, CI's clippy run
//! denies reasonless `#[allow]`s and `unsafe` code, and this lint keeps
//! the checks clippy cannot make.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod parser;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod workspace;

pub use config::Config;
pub use parser::ItemTree;
pub use report::{Finding, Report, Tally};
pub use rules::{check_file, FileContext, Rule};
pub use workspace::{lint_files, lint_named_sources, lint_workspace};
