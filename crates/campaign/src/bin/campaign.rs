//! The `campaign` CLI: run a scenario sweep in parallel — optionally as
//! one stride shard of a larger fleet — streaming JSON-lines records, and
//! merge shard outputs back into the exact unsharded byte stream.
//!
//! ```text
//! cargo run --release --bin campaign -- --trials 100
//! cargo run --release --bin campaign -- --list-algorithms
//! cargo run --release --bin campaign -- \
//!     --algorithms minimum,snapshot,flooding --envs "churn(e=0.3,a=0.8),partition" \
//!     --topologies complete --modes sync,async --sizes 8,16 --trials 200 \
//!     --seed 42 --threads 8 --out runs.jsonl --summary-out summary.jsonl
//!
//! # the delivery-semantics sweep: one async cell per rule, custom knobs
//! cargo run --release --bin campaign -- \
//!     --algorithms minimum,flooding --envs partition --topologies complete \
//!     --modes 'async(d=0.1,dv=valid-at-delivery),async(d=0.1,dv=valid-at-send),async(d=0.1,dv=any-overlap)' \
//!     --trials 120
//!
//! # the same sweep as three processes (possibly three machines) ...
//! cargo run --release --bin campaign -- --trials 200 --shard 0/3 --out s0.jsonl
//! cargo run --release --bin campaign -- --trials 200 --shard 1/3 --out s1.jsonl
//! cargo run --release --bin campaign -- --trials 200 --shard 2/3 --out s2.jsonl
//! # ... merged back into the bytes the unsharded run would have written
//! cargo run --release --bin campaign -- --merge s0.jsonl s1.jsonl s2.jsonl \
//!     --out merged.jsonl --summary-out summary.jsonl
//! ```
//!
//! The whole CLI lives in [`selfsim_campaign::cli`]; this binary runs it
//! against the builtin registries.  Projects with their own algorithm,
//! environment or topology families build the identical CLI over extended
//! registries with [`cli::run`] — see `examples/custom_campaign_cli.rs`.

use std::process::ExitCode;

use selfsim_campaign::cli::{self, CliRegistries};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli::run(&argv, &CliRegistries::default())
}
