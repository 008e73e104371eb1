//! The committed *clean* fixture: every lexer trap that a naive textual
//! grep would false-positive on.  `tests/detlint.rs` asserts this file
//! produces **zero** findings.
//!
//! Never compiled — it only feeds the lint's own test suite.

/// Doc comments are not code: `Instant::now()` and `println!("x")` here
/// must not fire, and neither must this `.unwrap()` or `HashMap`.
pub fn doc_comment_traps() {}

// Line comment traps: SystemTime::now(), thread_rng(), dbg!(x).
/* Block comment traps, /* nested once */ still inside: rand::random(). */

pub fn string_traps() -> usize {
    let cooked = "Instant::now() and HashMap::new() in a cooked string";
    let escaped = "escaped quote \" then SystemTime::now()";
    let raw = r#"raw string: thread_rng() and println!("x")"#;
    let hashy = r##"raw with "# inside: from_entropy()"##;
    let bytes = b"byte string: OsRng";
    let multi = "a cooked string
        spanning lines with Instant::now() inside";
    cooked.len() + escaped.len() + raw.len() + hashy.len() + bytes.len() + multi.len()
}

pub fn char_traps(input: &str) -> usize {
    // A `'"'` char must not open a string that swallows the rest of the
    // file; lifetimes must not parse as unterminated chars.
    let quote_char = '"';
    let escaped_quote = '\'';
    let newline = '\n';
    input
        .chars()
        .filter(|&c| c == quote_char || c == escaped_quote || c == newline)
        .count()
}

pub fn lifetime_traps<'a>(x: &'a str) -> &'a str {
    x
}

pub fn sanctioned_site() -> u64 {
    // detlint::allow(ambient-rng, reason = "fixture: sanctioned entropy site")
    rand::random::<u64>()
}

// an allow with a same-line justification is not bare
#[allow(dead_code)] // fixture: exercised only by the lint's test suite
pub fn justified_allow() {}

pub fn expect_not_unwrap(v: Option<u32>) -> u32 {
    // `.expect` is sanctioned; `.unwrap` only counts against the budget
    // in workspace mode (this fixture is linted in file mode).
    v.expect("fixture value is always Some")
}

pub fn derived_rng(seed: u64) -> rand::rngs::StdRng {
    // seed-provenance: a seed-bearing parameter is the sanctioned chain,
    // even mixed through a local.
    let stream_seed = seed ^ 0x9E37_79B9;
    rand::rngs::StdRng::seed_from_u64(stream_seed)
}

#[cfg(test)]
mod tests {
    // println! in a #[cfg(test)] mod is not a stray print, a fixed seed
    // is exactly what a test wants, and test-mod indexing is not
    // panic surface.
    pub fn print_in_tests() {
        println!("test-scoped output is sanctioned");
    }

    pub fn seeded_in_tests() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    pub fn index_in_tests(v: &[u8]) -> u8 {
        v[0]
    }
}
