//! A resolution-free Rust lexer that is exact about the things a textual
//! lint gets wrong: comments (line, nested block, doc), string literals
//! (cooked, raw with any hash count, byte/C-string prefixes), char
//! literals vs. lifetimes, and raw identifiers.
//!
//! The output is deliberately coarse — identifiers, single-char
//! punctuation and opaque literals, each with a 1-based `line:col` span —
//! because every rule in the catalogue is a token-sequence pattern, not a
//! parse.  What matters is that `Instant::now` inside a string, a doc
//! comment or an `r##"…"##` raw string produces *no* `Ident` token, while
//! the same text in code always does.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (bytes).
    pub col: u32,
}

/// The token classes the rule patterns match on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (raw identifiers lose their `r#` prefix).
    Ident(String),
    /// A single punctuation byte (`::` arrives as two `:` tokens).
    Punct(char),
    /// Any literal: string, raw string, byte string, char, number.
    Lit,
    /// A lifetime or label (`'a`, `'static`, `'_`): not a value.
    Lifetime,
}

impl Tok {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(name) => Some(name),
            _ => None,
        }
    }

    /// True when this token is the punctuation byte `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One comment, with the delimiters kept in `text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Line the comment starts on (1-based).
    pub line: u32,
    /// Line the comment ends on (equal to `line` for line comments).
    pub end_line: u32,
    /// Raw text including `//` / `/* */` delimiters.
    pub text: String,
    /// Doc comments (`///`, `//!`, `/** */`, `/*! */`) never carry
    /// pragmas.
    pub doc: bool,
}

/// A lexed file: the code token stream plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

struct Scanner<'a> {
    src: &'a str,
    b: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Scanner<'a> {
    fn peek(&self, k: usize) -> u8 {
        self.b.get(self.i + k).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.b[self.i];
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn done(&self) -> bool {
        self.i >= self.b.len()
    }
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Lexes `src`, producing the code token stream and the comment list.
pub fn lex(src: &str) -> Lexed {
    let mut s = Scanner {
        src,
        b: src.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while !s.done() {
        let c = s.peek(0);
        if c.is_ascii_whitespace() {
            s.bump();
            continue;
        }
        let (line, col) = (s.line, s.col);
        if c == b'/' && s.peek(1) == b'/' {
            line_comment(&mut s, &mut out, line);
        } else if c == b'/' && s.peek(1) == b'*' {
            block_comment(&mut s, &mut out, line);
        } else if c == b'"' {
            cooked_string(&mut s);
            out.toks.push(Tok {
                kind: TokKind::Lit,
                line,
                col,
            });
        } else if c == b'\'' {
            char_or_lifetime(&mut s, &mut out, line, col);
        } else if is_ident_start(c) {
            ident_or_prefixed_literal(&mut s, &mut out, line, col);
        } else if c.is_ascii_digit() {
            number(&mut s);
            out.toks.push(Tok {
                kind: TokKind::Lit,
                line,
                col,
            });
        } else {
            s.bump();
            out.toks.push(Tok {
                kind: TokKind::Punct(c as char),
                line,
                col,
            });
        }
    }
    out
}

fn line_comment(s: &mut Scanner, out: &mut Lexed, line: u32) {
    let start = s.i;
    // `///x` and `//!` are doc; `//` and `////…` are plain.
    let doc = (s.peek(2) == b'/' && s.peek(3) != b'/') || s.peek(2) == b'!';
    while !s.done() && s.peek(0) != b'\n' {
        s.bump();
    }
    out.comments.push(Comment {
        line,
        end_line: line,
        text: s.src[start..s.i].to_string(),
        doc,
    });
}

fn block_comment(s: &mut Scanner, out: &mut Lexed, line: u32) {
    let start = s.i;
    // `/**x` and `/*!` are doc; `/**/` and `/***/` are plain enough.
    let doc = (s.peek(2) == b'*' && s.peek(3) != b'/' && s.peek(3) != b'*') || s.peek(2) == b'!';
    s.bump();
    s.bump();
    let mut depth = 1u32;
    while !s.done() && depth > 0 {
        if s.peek(0) == b'/' && s.peek(1) == b'*' {
            depth += 1;
            s.bump();
            s.bump();
        } else if s.peek(0) == b'*' && s.peek(1) == b'/' {
            depth -= 1;
            s.bump();
            s.bump();
        } else {
            s.bump();
        }
    }
    out.comments.push(Comment {
        line,
        end_line: s.line,
        text: s.src[start..s.i].to_string(),
        doc,
    });
}

/// Consumes a `"…"` literal (opening quote not yet consumed), honouring
/// `\"` and `\\` escapes; cooked strings may span lines.
fn cooked_string(s: &mut Scanner) {
    s.bump(); // opening quote
    while !s.done() {
        match s.bump() {
            b'\\' if !s.done() => {
                s.bump();
            }
            b'"' => return,
            _ => {}
        }
    }
}

/// Consumes `r"…"` / `r#"…"#…` with `hashes` leading `#`s already known
/// (prefix and hashes not yet consumed; `extra` is the prefix length).
fn raw_string(s: &mut Scanner, extra: usize, hashes: usize) {
    for _ in 0..extra + hashes + 1 {
        s.bump(); // prefix letters, hashes, opening quote
    }
    while !s.done() {
        if s.bump() == b'"' {
            let mut matched = 0;
            while matched < hashes && s.peek(0) == b'#' {
                s.bump();
                matched += 1;
            }
            if matched == hashes {
                return;
            }
        }
    }
}

fn char_or_lifetime(s: &mut Scanner, out: &mut Lexed, line: u32, col: u32) {
    if is_ident_start(s.peek(1)) && s.peek(2) != b'\'' {
        // A lifetime (`'a`, `'static`, `'_`): no closing quote follows.
        s.bump();
        while is_ident_continue(s.peek(0)) {
            s.bump();
        }
        out.toks.push(Tok {
            kind: TokKind::Lifetime,
            line,
            col,
        });
        return;
    }
    // A char literal: `'x'`, `'\''`, `'\u{1F600}'`, `'"'`.
    s.bump(); // opening quote
    while !s.done() && s.peek(0) != b'\'' {
        if s.peek(0) == b'\\' {
            s.bump();
        }
        if !s.done() {
            s.bump();
        }
    }
    if !s.done() {
        s.bump(); // closing quote
    }
    out.toks.push(Tok {
        kind: TokKind::Lit,
        line,
        col,
    });
}

fn ident_or_prefixed_literal(s: &mut Scanner, out: &mut Lexed, line: u32, col: u32) {
    // String-literal prefixes: r" r#" b" br" c" cr" b'  — and the raw
    // identifier `r#name`.  Look ahead without consuming.
    let c0 = s.peek(0);
    if matches!(c0, b'r' | b'b' | b'c') {
        let (extra, raw) = match (c0, s.peek(1)) {
            (b'b', b'r') | (b'c', b'r') => (2, true),
            (b'r', _) => (1, true),
            (b'b' | b'c', _) => (1, false),
            _ => unreachable!(),
        };
        if raw {
            let mut hashes = 0;
            while s.peek(extra + hashes) == b'#' {
                hashes += 1;
            }
            if s.peek(extra + hashes) == b'"' {
                raw_string(s, extra, hashes);
                out.toks.push(Tok {
                    kind: TokKind::Lit,
                    line,
                    col,
                });
                return;
            }
            if c0 == b'r' && hashes == 1 && is_ident_start(s.peek(2)) {
                // Raw identifier `r#match`: emit the bare name.
                s.bump();
                s.bump();
                let start = s.i;
                while is_ident_continue(s.peek(0)) {
                    s.bump();
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident(s.src[start..s.i].to_string()),
                    line,
                    col,
                });
                return;
            }
        }
        if extra == 1 && s.peek(1) == b'"' {
            s.bump(); // prefix letter
            cooked_string(s);
            out.toks.push(Tok {
                kind: TokKind::Lit,
                line,
                col,
            });
            return;
        }
        if c0 == b'b' && s.peek(1) == b'\'' {
            s.bump(); // `b`
            char_or_lifetime(s, out, line, col);
            return;
        }
    }
    let start = s.i;
    while is_ident_continue(s.peek(0)) {
        s.bump();
    }
    out.toks.push(Tok {
        kind: TokKind::Ident(s.src[start..s.i].to_string()),
        line,
        col,
    });
}

/// Consumes a numeric literal: enough precision that `0.5`, `1e-3`,
/// `0xFF_u64` and tuple indexing (`x.0.unwrap()`) all tokenize sanely.
fn number(s: &mut Scanner) {
    s.bump();
    while is_ident_continue(s.peek(0)) {
        s.bump();
    }
    if s.peek(0) == b'.' && s.peek(1).is_ascii_digit() {
        s.bump();
        while is_ident_continue(s.peek(0)) {
            s.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_and_comments_emit_no_idents() {
        let src = r####"
            // Instant::now in a line comment
            /* thread_rng in /* a nested */ block comment */
            /// doc: println!("x")
            let a = "Instant::now()";
            let b = r#"HashMap::new()"#;
            let c = r##"raw "# with hash"##;
            let d = b"SystemTime::now";
        "####;
        let names = idents(src);
        assert!(!names.contains(&"Instant".to_string()), "{names:?}");
        assert!(!names.contains(&"thread_rng".to_string()));
        assert!(!names.contains(&"HashMap".to_string()));
        assert!(!names.contains(&"SystemTime".to_string()));
        assert!(!names.contains(&"println".to_string()));
        assert_eq!(
            names,
            ["let", "a", "let", "b", "let", "c", "let", "d"].map(str::to_string)
        );
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let names = idents(r#"let x = "say \"Instant::now\" later"; done();"#);
        assert_eq!(names, ["let", "x", "done"].map(str::to_string));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        // A `'"'` char must not open a string; a lifetime has no close.
        let names = idents("fn f<'a>(x: &'a str) { let q = '\"'; let e = '\\''; g(); }");
        assert!(names.contains(&"g".to_string()));
        assert!(!names.iter().any(|n| n == "q\""));
        let names = idents("let c = b'x'; h();");
        assert_eq!(names, ["let", "c", "h"].map(str::to_string));
    }

    #[test]
    fn raw_identifiers_lose_the_prefix() {
        assert_eq!(
            idents("use r#mod::thing;"),
            ["use", "mod", "thing"].map(str::to_string)
        );
    }

    #[test]
    fn comment_side_channel_records_spans_and_docness() {
        let lexed = lex("// plain\n/// doc\n//! inner\ncode(); // trailing\n/* b\nlock */\n");
        let docs: Vec<bool> = lexed.comments.iter().map(|c| c.doc).collect();
        assert_eq!(docs, [false, true, true, false, false]);
        assert_eq!(lexed.comments[3].line, 4);
        let block = &lexed.comments[4];
        assert_eq!((block.line, block.end_line), (5, 6));
    }

    #[test]
    fn tuple_indexing_still_exposes_unwrap() {
        let lexed = lex("let y = x.0.unwrap();");
        let names: Vec<_> = lexed.toks.iter().filter_map(|t| t.ident()).collect();
        assert!(names.contains(&"unwrap"));
    }

    #[test]
    fn spans_are_one_based_lines_and_cols() {
        let lexed = lex("a\n  bb\n");
        assert_eq!((lexed.toks[0].line, lexed.toks[0].col), (1, 1));
        assert_eq!((lexed.toks[1].line, lexed.toks[1].col), (2, 3));
    }
}
