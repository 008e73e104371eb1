//! The committed *violation* fixture: one seeded instance of every
//! file-scoped rule, plus the three ways a pragma can be malformed.
//!
//! This file is never compiled — it exists so the CI `static-analysis`
//! job can prove the lint still *fails* (`selfsim-detlint
//! crates/detlint/fixtures/violations.rs` must exit nonzero) and so
//! `tests/detlint.rs` can pin the exact `--format json` report.
//! After editing, re-bless with `selfsim-detlint --bless`.
//!
//! The wall-clock, `HashMap`/`HashSet`, print-family and `.unwrap()`
//! bans are clippy's (`clippy.toml`), as are reasonless `#[allow]`s and
//! `unsafe` code (CI's clippy flags); `clippy_bans.rs` next to this file
//! is their negative self-test.

pub fn ambient_rng() -> u64 {
    let mut rng = rand::thread_rng(); // ambient-rng
    rand::random::<u64>() // ambient-rng (path form)
}

pub fn sanctioned_ambient_rng() -> u64 {
    // detlint::allow(ambient-rng, reason = "fixture: proves a well-formed pragma suppresses the finding")
    rand::random::<u64>()
}

pub fn addr_as_key(values: &[u64]) -> usize {
    values.as_ptr() as usize // addr-as-key
}

pub fn literal_seed() -> u64 {
    // seed-provenance: 42 does not trace to the per-trial seed chain.
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    rng.next_u64()
}

pub fn panic_surface(v: &[u64], i: usize) -> u64 {
    if i >= v.len() {
        panic!("index {i} out of bounds"); // panic-ratchet
    }
    match v[i] {
        // `v[i]` above is the indexing site the ratchet counts.
        0 => unreachable!("zero is filtered upstream"), // panic-ratchet
        n => n,
    }
}

// detlint::allow(ambient-rng)
// detlint::allow(addr-as-key, reason = "")
// detlint::allow(not-a-rule, reason = "unknown rules are rejected")
pub fn invalid_pragmas() {}
