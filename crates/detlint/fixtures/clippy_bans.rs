//! The committed negative self-test for the `clippy.toml` bans and the
//! check job's two extra clippy flags: one seeded use of each disallowed
//! clock, hash collection, print-family macro and `.unwrap()`, a
//! reasonless `#[allow]` and an `unsafe` block.
//!
//! Never part of a build — CI compiles it alone with `clippy-driver`
//! from the repo root (where `clippy.toml` is found) and requires the
//! run to *fail*, naming `disallowed_methods`, `disallowed_types`,
//! `disallowed_macros`, `allow_attributes_without_reason` and
//! `unsafe-code`:
//!
//! ```text
//! clippy-driver --edition 2021 --crate-type lib --emit=metadata -D warnings \
//!     -D clippy::allow_attributes_without_reason -D unsafe_code \
//!     crates/detlint/fixtures/clippy_bans.rs
//! ```

use std::collections::{HashMap, HashSet};
use std::println as say;
use std::time::{Instant, SystemTime};

pub fn wall_clock() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

pub fn hash_collections() -> (HashMap<u32, u32>, HashSet<u32>) {
    (HashMap::new(), HashSet::new())
}

pub fn stray_output(x: u32) -> u32 {
    say!("an aliased println"); // a token match would miss this one
    dbg!(x)
}

pub fn unfinished() {
    todo!()
}

pub fn unwraps(o: Option<u32>, r: Result<u32, ()>) -> u32 {
    o.unwrap() + r.unwrap()
}

#[allow(dead_code)]
fn bare_allow() {}

pub fn unsafe_block(v: &[u32]) -> u32 {
    unsafe { *v.get_unchecked(0) }
}
