//! Uses `rand` and nothing else its manifest declares.

/// A die roll from the given generator.
pub fn roll(rng: &mut impl rand::Rng) -> u8 {
    rng.gen_range(1..=6)
}
