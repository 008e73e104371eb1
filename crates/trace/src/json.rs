//! The one JSON Lines writer.
//!
//! Campaign records (`selfsim_campaign::TrialRecord`) and trace events
//! ([`crate::TraceEvent::write_jsonl`]) are written straight to bytes
//! through [`JsonLine`], never through a `serde` `Value` tree.  The rules
//! are the `serde_json` writer's: keys in the order written, no
//! whitespace, strings escaped by [`write_str`], integers in decimal,
//! non-finite floats as `null`.

use std::io::Write as _;

/// A JSON object being written into a line buffer, one field at a time;
/// [`JsonLine::end`] closes it and terminates the line.
pub struct JsonLine<'a> {
    out: &'a mut Vec<u8>,
    /// Whether no field has been written yet (so no `,` precedes the key).
    first: bool,
}

impl<'a> JsonLine<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        out.push(b'{');
        JsonLine { out, first: true }
    }

    /// Writes the separator and `"key":`, returning the buffer for the
    /// value.  Keys are plain identifiers, so they need no escaping.
    fn key(&mut self, key: &str) -> &mut Vec<u8> {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
        self.out
    }

    /// A string value, escaped by [`write_str`].
    pub fn str(&mut self, key: &str, value: &str) {
        write_str(self.key(key), value);
    }

    /// A boolean value.
    pub fn bool(&mut self, key: &str, value: bool) {
        let text: &[u8] = if value { b"true" } else { b"false" };
        self.key(key).extend_from_slice(text);
    }

    /// An integer in decimal.
    pub fn uint(&mut self, key: &str, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut len = 0;
        for slot in digits.iter_mut().rev() {
            *slot = b'0' + (n % 10) as u8;
            len += 1;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.key(key).extend(digits.iter().skip(digits.len() - len));
    }

    /// A float: `null` unless finite, and a `.0` suffix when `Display`
    /// gives no `.`, `e` or `E` (so it parses back as a float).
    pub fn float(&mut self, key: &str, x: f64) {
        let out = self.key(key);
        if !x.is_finite() {
            out.extend_from_slice(b"null");
            return;
        }
        let start = out.len();
        write!(out, "{x}").expect("writing to a Vec never fails");
        if !out
            .iter()
            .skip(start)
            .any(|b| matches!(b, b'.' | b'e' | b'E'))
        {
            out.extend_from_slice(b".0");
        }
    }

    /// A `null` value.
    pub fn null(&mut self, key: &str) {
        self.key(key).extend_from_slice(b"null");
    }

    /// Closes the object and terminates the line.
    pub fn end(self) {
        self.out.extend_from_slice(b"}\n");
    }
}

/// Appends `value` as a quoted JSON string: `"`, `\`, `\n`, `\r`, `\t`,
/// `\b` and `\f` get their short escapes, other control characters
/// `\u00XX`.  Only ASCII bytes are ever escaped, so multi-byte UTF-8
/// sequences (whose bytes are all `>= 0x80`) copy through unchanged, in
/// runs between escapes.
pub fn write_str(out: &mut Vec<u8>, value: &str) {
    fn escaped(b: u8) -> bool {
        b < 0x20 || b == b'"' || b == b'\\'
    }
    out.push(b'"');
    for run in value.as_bytes().split_inclusive(|&b| escaped(b)) {
        match run.split_last() {
            Some((&b, plain)) if escaped(b) => {
                out.extend_from_slice(plain);
                match b {
                    b'"' => out.extend_from_slice(b"\\\""),
                    b'\\' => out.extend_from_slice(b"\\\\"),
                    b'\n' => out.extend_from_slice(b"\\n"),
                    b'\r' => out.extend_from_slice(b"\\r"),
                    b'\t' => out.extend_from_slice(b"\\t"),
                    0x08 => out.extend_from_slice(b"\\b"),
                    0x0C => out.extend_from_slice(b"\\f"),
                    _ => write!(out, "\\u{b:04x}").expect("writing to a Vec never fails"),
                }
            }
            _ => out.extend_from_slice(run),
        }
    }
    out.push(b'"');
}
