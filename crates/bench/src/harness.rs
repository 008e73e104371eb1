//! What the `escale` and `bench_campaign` binaries share: flag reading,
//! best-of-3 timing, an ordered JSON writer and the regression-gate check.

// detlint::allow-file(stray-print, reason = "the bench binaries' usage text and error lines are printed here, once for both; no record bytes pass through this module")

use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// A bench binary's flags, read one at a time.
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// Reads `args`, which exclude the program name.
    pub fn new(args: Vec<String>) -> Self {
        Flags(args.into_iter())
    }

    /// The next flag; `--help` and `-h` come back as the empty error,
    /// which [`main`] answers with the usage text.
    pub fn next_flag(&mut self) -> Result<Option<String>, String> {
        match self.0.next() {
            Some(flag) if flag == "--help" || flag == "-h" => Err(String::new()),
            flag => Ok(flag),
        }
    }

    /// The value that follows `flag`, parsed.
    pub fn value<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<T, String> {
        let text = self
            .0
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        parse_value(flag, &text)
    }
}

/// `text` parsed as a value of `flag`; the error names the flag.
pub fn parse_value<T: FromStr<Err: Display>>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// The error for a flag the binary does not take.
pub fn unknown_flag(flag: &str) -> String {
    format!("unknown flag `{flag}`")
}

/// A bench binary's `main`: `parse` reads the flags, `run` measures,
/// writes and gates.  Exits 0 (also after `--help` prints `usage`), 2 on
/// a flag error (printed with the usage) or 1 on a failed run or gate.
pub fn main<A>(
    usage: &str,
    parse: impl FnOnce(&mut Flags) -> Result<A, String>,
    run: impl FnOnce(A) -> Result<(), String>,
) -> ExitCode {
    let (message, code) = match parse(&mut Flags::new(std::env::args().skip(1).collect())) {
        Ok(args) => match run(args) {
            Ok(()) => return ExitCode::SUCCESS,
            Err(message) => (message, ExitCode::FAILURE),
        },
        Err(message) if message.is_empty() => {
            print!("{usage}");
            return ExitCode::SUCCESS;
        }
        Err(message) => (format!("{message}\n\n{usage}"), ExitCode::from(2)),
    };
    eprintln!("error: {message}");
    code
}

/// Runs `run` once; returns its result and wall time.
#[expect(
    clippy::disallowed_methods,
    reason = "timing is what the bench binaries are for; they read the clock only here"
)]
pub fn timed<T>(run: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = run();
    (result, start.elapsed())
}

/// `warmup` untimed calls to `run`, then three timed batches of `iters`
/// calls (at least one); returns the last result and the fastest batch.
pub fn best_of_3<T>(warmup: u32, iters: u32, mut run: impl FnMut() -> T) -> (T, Duration) {
    for _ in 0..warmup {
        run();
    }
    let mut batch = || timed(|| (1..iters).fold(run(), |_, _| run()));
    let (mut last, mut best) = batch();
    for _ in 1..3 {
        let (result, elapsed) = batch();
        (last, best) = (result, best.min(elapsed));
    }
    (last, best)
}

/// Writes a bench file's JSON in field order with 2-space indent; each
/// value is written as it displays, so `format_args!("{x:.1}")` sets one.
pub struct JsonWriter {
    out: String,
    depth: usize,
    empty: bool,
}

impl JsonWriter {
    /// A document whose first field is `"bench": "<bench>"`.
    pub fn new(bench: &str) -> Self {
        let mut json = JsonWriter {
            out: "{".into(),
            depth: 1,
            empty: true,
        };
        json.field("bench", format_args!("\"{bench}\""));
        json
    }

    /// Starts the next field, or array element when `key` is `None`.
    fn entry(&mut self, key: Option<&str>) -> &mut String {
        let comma = if self.empty { "" } else { "," };
        let _ = write!(self.out, "{comma}\n{}", "  ".repeat(self.depth));
        if let Some(key) = key {
            let _ = write!(self.out, "\"{key}\": ");
        }
        self.empty = false;
        &mut self.out
    }

    /// A field whose value is written as it displays.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.entry(Some(key)), "{value}");
        self
    }

    /// Opens `bracket` (`{` or `[`) under `key`, or as an array element.
    pub fn open(&mut self, key: Option<&str>, bracket: char) -> &mut Self {
        self.entry(key).push(bracket);
        self.depth += 1;
        self.empty = true;
        self
    }

    /// Closes the innermost open object or array with `bracket`.
    pub fn close(&mut self, bracket: char) -> &mut Self {
        self.depth = self.depth.saturating_sub(1);
        let _ = write!(self.out, "\n{}{bracket}", "  ".repeat(self.depth));
        self.empty = false;
        self
    }

    /// Closes the document; the text ends in a newline.
    pub fn finish(mut self) -> String {
        self.close('}');
        self.out + "\n"
    }
}

/// Writes `text` to `path`.
pub fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// A peak-RSS sample as JSON: `null` where it is unavailable.
pub fn kb_or_null(kb: Option<u64>) -> String {
    kb.map_or("null".into(), |kb| kb.to_string())
}

/// The side of its bound a gated measurement must stay on.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// A floor, such as a throughput floor.
    AtLeast(f64),
    /// A ceiling, such as a peak-RSS bound.
    AtMost(f64),
}

/// The one regression-gate check: `Err(message())` when `value` is past
/// `bound`.
pub fn gate(value: f64, bound: Bound, message: impl FnOnce() -> String) -> Result<(), String> {
    match bound {
        Bound::AtLeast(floor) if value < floor => Err(message()),
        Bound::AtMost(ceiling) if value > ceiling => Err(message()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn flag_errors_name_their_flag() {
        let mut f = flags(&["--trials", "ten", "--out"]);
        assert_eq!(f.next_flag(), Ok(Some("--trials".into())));
        let bad = f.value::<u64>("--trials").expect_err("not a number");
        assert!(bad.starts_with("bad --trials: "), "{bad}");
        assert_eq!(f.next_flag(), Ok(Some("--out".into())));
        assert_eq!(
            f.value::<String>("--out"),
            Err("--out expects a value".into())
        );
        assert_eq!(f.next_flag(), Ok(None));
        assert_eq!(unknown_flag("--seed"), "unknown flag `--seed`");
        assert_eq!(flags(&["-h"]).next_flag(), Err(String::new()));
        assert_eq!(flags(&["--help"]).next_flag(), Err(String::new()));
    }

    #[test]
    fn best_of_3_keeps_each_rule() {
        let mut calls = 0u32;
        let (last, _) = best_of_3(0, 1, || {
            calls += 1;
            calls
        });
        assert_eq!(
            (calls, last),
            (3, 3),
            "three single runs, no separate warm-up"
        );
        let mut calls = 0u32;
        best_of_3(3, 20, || calls += 1);
        assert_eq!(
            calls,
            3 + 3 * 20,
            "min(3, iters) warm-up calls, then 3 batches"
        );
    }

    #[test]
    fn json_writes_fields_in_order_with_two_space_indent() {
        let mut json = JsonWriter::new("t");
        json.field("a", format_args!("{:.1}", 1.26))
            .open(Some("b"), '[');
        json.open(None, '{').field("x", kb_or_null(None)).close('}');
        json.close(']').open(Some("c"), '[').close(']');
        json.field("d", "\"s\"");
        let expected = "{\n  \"bench\": \"t\",\n  \"a\": 1.3,\n  \"b\": [\n    {\n      \"x\": null\n    }\n  ],\n  \
                        \"c\": [\n  ],\n  \"d\": \"s\"\n}\n";
        assert_eq!(json.finish(), expected);
    }

    #[test]
    fn gates_fail_only_past_their_bound() {
        assert!(gate(5.0, Bound::AtLeast(5.0), String::new).is_ok());
        assert_eq!(
            gate(4.9, Bound::AtLeast(5.0), || "slow".into()),
            Err("slow".into())
        );
        assert!(gate(256.0, Bound::AtMost(256.0), String::new).is_ok());
        assert!(gate(256.5, Bound::AtMost(256.0), String::new).is_err());
    }
}
