//! The committed *violation* fixture: one seeded instance of every
//! file-scoped rule, plus the three ways a pragma can be malformed.
//!
//! This file is never compiled — it exists so the CI `static-analysis`
//! job can prove the lint still *fails* (`selfsim-detlint
//! crates/detlint/fixtures/violations.rs` must exit nonzero) and so
//! `tests/detlint.rs` can pin the exact `--format json` report.
//! After editing, re-bless with `selfsim-detlint --bless`.
//!
//! The wall-clock and `HashMap`/`HashSet` bans are clippy's
//! (`clippy.toml`); `clippy_bans.rs` next to this file is their negative
//! self-test.

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

pub fn stray_print(values: &[u32]) {
    println!("inserted {} entries", values.len()); // stray-print
    print!("no newline"); // stray-print (print!)
    eprint!("stderr fragment"); // stray-print (eprint!)
    eprintln!("stderr line"); // stray-print (eprintln!)
}

pub fn unfinished() {
    todo!() // stray-print: unfinished code panics at runtime
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

#[allow(dead_code)]
pub fn bare_allow() {} // the attribute above has no justification comment

// detlint::allow(ambient-rng)
// detlint::allow(stray-print, reason = "")
// detlint::allow(not-a-rule, reason = "unknown rules are rejected")
pub fn invalid_pragmas() {}
