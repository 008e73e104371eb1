//! The committed negative self-test for the `clippy.toml` bans: one
//! seeded use of each disallowed clock and hash collection.
//!
//! Never part of a build — CI compiles it alone with `clippy-driver`
//! from the repo root (where `clippy.toml` is found) and requires the
//! run to *fail*, naming both `disallowed_methods` and
//! `disallowed_types`:
//!
//! ```text
//! clippy-driver --edition 2021 --crate-type lib --emit=metadata -D warnings \
//!     crates/detlint/fixtures/clippy_bans.rs
//! ```

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub fn wall_clock() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

pub fn hash_collections() -> (HashMap<u32, u32>, HashSet<u32>) {
    (HashMap::new(), HashSet::new())
}
