//! A lightweight item-tree parser over the [`crate::lexer`] token stream.
//!
//! `ambient-rng`, `addr-as-key` and `invalid-pragma` are pure
//! token-sequence patterns; `seed-provenance` and `panic-ratchet` also
//! need *structure*: which fn a token belongs to, what that fn's
//! parameters are named, and whether a line sits inside a `#[cfg(test)]`
//! mod.
//!
//! This is deliberately not a Rust parser.  It is a single forward scan
//! with brace matching that recognises exactly the item heads the rules
//! care about (`fn`, `impl`, `mod`, `trait`, `macro_rules!`) and records
//! token-index spans into the flat [`Tok`] slice — resolution-free,
//! error-tolerant (unknown constructs, `struct` and `enum` included, are
//! skipped token by token or brace group by brace group), and guaranteed
//! to terminate: the cursor only moves forward.  `macro_rules!` bodies
//! are treated as opaque (the `$x` metavariables inside are not real
//! items), and fn bodies are not descended into for *items* (a nested
//! helper fn is rare enough that the rules treat its tokens as part of
//! the enclosing fn's body).
//!
//! The invariant the property tests pin: parsing never panics, every
//! recorded span lies within the token stream, spans nest properly, and
//! [`ItemTree::token_count`] always agrees with the lexer's count.

use crate::lexer::Tok;

/// A half-open token-index range `[lo, hi)` into the lexed stream.
pub type TokSpan = (usize, usize);

/// One `fn` item: the signature facts the rules need plus its body span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    pub name: String,
    /// Binding names from the parameter list (`self` included when
    /// present; destructuring patterns contribute every bound ident).
    pub params: Vec<String>,
    /// Token span of the body including its braces; `None` for a
    /// body-less declaration (`fn f();` in a trait).
    pub body: Option<TokSpan>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` mod.
    pub in_test: bool,
}

/// The per-file item tree.
#[derive(Debug, Default)]
pub struct ItemTree {
    pub fns: Vec<FnItem>,
    /// Line ranges of `#[cfg(test)] mod … { … }` blocks.
    pub test_ranges: Vec<(u32, u32)>,
    token_count: usize,
}

impl ItemTree {
    /// Parses the item tree from a lexed token stream.
    pub fn parse(toks: &[Tok]) -> ItemTree {
        let mut tree = ItemTree {
            token_count: toks.len(),
            ..ItemTree::default()
        };
        let mut p = Parser { toks, i: 0 };
        p.items(&mut tree, false);
        tree
    }

    /// The number of tokens the tree was parsed from — by construction
    /// equal to the lexer's token count (the property tests assert it).
    pub fn token_count(&self) -> usize {
        self.token_count
    }

    /// Whether a 1-based line falls inside a `#[cfg(test)]` mod.
    pub fn line_in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// The innermost fn whose body span contains token index `i`.
    pub fn fn_at(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(lo, hi)| (lo..hi).contains(&i)))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(lo, hi)| hi - lo))
    }
}

/// `+1` for any opening bracket, `-1` for any closing one, else `0`.
fn brack(tok: &Tok) -> i32 {
    for c in ['(', '[', '{'] {
        if tok.is_punct(c) {
            return 1;
        }
    }
    for c in [')', ']', '}'] {
        if tok.is_punct(c) {
            return -1;
        }
    }
    0
}

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ident(&self, k: usize) -> Option<&'a str> {
        self.toks.get(self.i + k).and_then(Tok::ident)
    }

    fn punct(&self, k: usize, c: char) -> bool {
        self.toks.get(self.i + k).is_some_and(|t| t.is_punct(c))
    }

    fn line(&self) -> u32 {
        self.toks.get(self.i).map_or(0, |t| t.line)
    }

    fn done(&self) -> bool {
        self.i >= self.toks.len()
    }

    /// Parses the items of one block scope.  `in_test` marks everything
    /// inside a `#[cfg(test)]` mod.  Returns when the scope's closing `}`
    /// is consumed (or at EOF).
    fn items(&mut self, tree: &mut ItemTree, in_test: bool) {
        while !self.done() {
            if self.punct(0, '}') {
                self.i += 1;
                return;
            }
            // Attributes: consume, remembering whether one was `cfg(test)`.
            let mut cfg_test = false;
            while self.punct(0, '#') {
                let bang = usize::from(self.punct(1, '!'));
                if !self.punct(1 + bang, '[') {
                    self.i += 1;
                    continue;
                }
                if self.ident(2 + bang) == Some("cfg")
                    && self.punct(3 + bang, '(')
                    && self.ident(4 + bang) == Some("test")
                {
                    cfg_test = true;
                }
                self.i += 1 + bang; // at the `[`
                self.skip_balanced('[', ']');
            }
            let Some(word) = self.ident(0) else {
                // A brace group no item handler owns (a `use …::{…};`
                // list, a const block): opaque, or its `}` would read as
                // the end of this scope.
                if self.punct(0, '{') {
                    self.skip_balanced('{', '}');
                } else {
                    self.i += 1;
                }
                continue;
            };
            match word {
                "pub" => {
                    self.i += 1;
                    // `pub(crate)` etc.
                    if self.punct(0, '(') {
                        self.skip_balanced('(', ')');
                    }
                    // Re-loop with any cfg(test) already consumed: a
                    // `#[cfg(test)] pub mod` is rare; the mod handler
                    // below re-reads attributes only at item heads, so
                    // fold the flag by handling the item now.
                    self.item_head(tree, in_test, cfg_test);
                }
                _ => self.item_head_word(word, tree, in_test, cfg_test),
            }
        }
    }

    /// Dispatches the item head at the cursor (after visibility).
    fn item_head(&mut self, tree: &mut ItemTree, in_test: bool, cfg_test: bool) {
        let Some(word) = self.ident(0) else {
            return;
        };
        self.item_head_word(word, tree, in_test, cfg_test);
    }

    fn item_head_word(&mut self, word: &str, tree: &mut ItemTree, in_test: bool, cfg_test: bool) {
        match word {
            "fn" => self.fn_item(tree, in_test),
            "impl" | "trait" => self.impl_or_trait_item(tree, in_test),
            "mod" => self.mod_item(tree, in_test || cfg_test, cfg_test),
            "macro_rules" => {
                // `macro_rules! name { … }` — the body is not item code.
                self.i += 1;
                self.skip_to_block_or_semi();
                self.skip_balanced('{', '}');
            }
            "unsafe" | "async" | "const" | "extern" | "default" => {
                // Qualifiers that may precede `fn`/`impl`/`trait`: step
                // over and let the next loop iteration see the keyword.
                // (`const NAME: … = …;` falls to the `;`-skip below on the
                // next iteration because NAME is not an item keyword.)
                self.i += 1;
            }
            _ => {
                // `use`, `static`, `type`, `struct`, `enum`, expression
                // statements, … —
                // advance one token; brace blocks are consumed by the
                // scope loop's `}` handling only when they close a scope
                // we opened, so skip balanced braces opened here.
                if self.punct(0, '{') {
                    self.skip_balanced('{', '}');
                } else {
                    self.i += 1;
                }
            }
        }
    }

    fn fn_item(&mut self, tree: &mut ItemTree, in_test: bool) {
        let line = self.line();
        self.i += 1; // `fn`
        let name = self.ident(0).unwrap_or("").to_string();
        if !name.is_empty() {
            self.i += 1;
        }
        // Generics: `<…>` with arrow-aware angle matching.
        if self.punct(0, '<') {
            self.skip_generics();
        }
        // Parameters.
        let mut params = Vec::new();
        if self.punct(0, '(') {
            let open = self.i;
            self.skip_balanced('(', ')');
            params = param_names(&self.toks[open + 1..self.i.saturating_sub(1)]);
        }
        // Return type / where clause: scan to the body `{` or a `;` at
        // bracket depth 0.
        let mut depth = 0i32;
        let mut body = None;
        while !self.done() {
            let t = &self.toks[self.i];
            if depth == 0 && t.is_punct(';') {
                self.i += 1;
                break;
            }
            if depth == 0 && t.is_punct('{') {
                let open = self.i;
                self.skip_balanced('{', '}');
                body = Some((open, self.i));
                break;
            }
            match brack(t) {
                1 => depth += 1,
                -1 => {
                    if depth == 0 {
                        break; // stray close: end of enclosing scope
                    }
                    depth -= 1;
                }
                _ => {}
            }
            self.i += 1;
        }
        tree.fns.push(FnItem {
            name,
            params,
            body,
            line,
            in_test,
        });
    }

    fn mod_item(&mut self, tree: &mut ItemTree, in_test: bool, cfg_test: bool) {
        self.i += 1; // `mod`
        if self.ident(0).is_some() {
            self.i += 1;
        }
        if self.punct(0, ';') {
            self.i += 1;
            return;
        }
        if self.punct(0, '{') {
            let open_line = self.toks[self.i].line;
            self.i += 1;
            self.items(tree, in_test);
            if cfg_test {
                let close_line = self
                    .toks
                    .get(self.i.saturating_sub(1))
                    .map_or(open_line, |t| t.line);
                tree.test_ranges.push((open_line, close_line));
            }
        }
    }

    /// `impl … { … }` or `trait … { … }`: the head is skipped and the
    /// body's items parsed, so methods (and default method bodies) land in
    /// [`ItemTree::fns`].
    fn impl_or_trait_item(&mut self, tree: &mut ItemTree, in_test: bool) {
        self.i += 1; // `impl` / `trait`
        if self.punct(0, '<') {
            self.skip_generics();
        }
        self.skip_to_block_or_semi();
        if self.punct(0, '{') {
            self.i += 1; // enter the body
            self.items(tree, in_test);
        } else if self.punct(0, ';') {
            self.i += 1;
        }
    }

    /// Skips a balanced bracket pair starting at the cursor (which must
    /// sit on the opening bracket); lands one past the close.
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0usize;
        while !self.done() {
            let t = &self.toks[self.i];
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skips generic params/args `<…>`, treating `->` arrows as opaque
    /// (so `fn f<F: Fn() -> u64>` does not close the angle early).
    fn skip_generics(&mut self) {
        let mut depth = 0i32;
        while !self.done() {
            let t = &self.toks[self.i];
            if t.is_punct('-') && self.punct(1, '>') {
                self.i += 2;
                continue;
            }
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth <= 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Advances to the next `{` or `;` at bracket depth 0 (consuming
    /// neither).
    fn skip_to_block_or_semi(&mut self) {
        let mut depth = 0i32;
        while !self.done() {
            let t = &self.toks[self.i];
            if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                return;
            }
            match brack(t) {
                1 => depth += 1,
                -1 => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            self.i += 1;
        }
    }
}

/// Binding names from a parameter-list token slice: for each depth-0
/// comma-separated segment, every ident before the top-level `:` (so
/// destructuring patterns contribute all their bindings), or `self`.
fn param_names(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut seen_colon = false;
    for (k, t) in toks.iter().enumerate() {
        match brack(t) {
            1 => depth += 1,
            -1 => depth -= 1,
            _ => {}
        }
        if depth == 0 && t.is_punct(',') {
            seen_colon = false;
            continue;
        }
        if depth == 0
            && t.is_punct(':')
            && !toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && !k.checked_sub(1).is_some_and(|p| toks[p].is_punct(':'))
        {
            seen_colon = true;
            continue;
        }
        if seen_colon {
            continue;
        }
        if let Some(name) = t.ident() {
            if !matches!(name, "mut" | "ref" | "dyn" | "impl") {
                out.push(name.to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ItemTree {
        ItemTree::parse(&lex(src).toks)
    }

    #[test]
    fn fns_params_and_bodies() {
        let t = tree(
            "fn plain(a: u32, mut b: &str) -> u32 { a }\n\
             pub fn generic<F: Fn() -> u64>(cb: F) { cb(); }\n\
             fn sig_only(x: u8);\n",
        );
        assert_eq!(t.fns.len(), 3);
        assert_eq!(t.fns[0].name, "plain");
        assert_eq!(t.fns[0].params, ["a", "b"]);
        assert!(t.fns[0].body.is_some());
        assert_eq!(t.fns[1].params, ["cb"]);
        assert_eq!(t.fns[2].name, "sig_only");
        assert!(t.fns[2].body.is_none());
    }

    #[test]
    fn self_and_destructured_params() {
        let t = tree("impl T { fn m(&mut self, (a, b): (u32, u32)) {} }\n");
        assert_eq!(t.fns[0].params, ["self", "a", "b"]);
    }

    #[test]
    fn impls_attribute_their_fns() {
        // Methods and default trait-method bodies are real code: an
        // `impl`/`trait` head is skipped and its body's fns are recorded.
        let t = tree(
            "impl<S: Ord + Clone> Runtime<S> for RoundRunner {\n\
               fn mode_name(&self) -> &'static str { \"sync\" }\n\
             }\n\
             trait Labelled { fn label(&self) -> String { x() } }\n",
        );
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["mode_name", "label"]);
        assert_eq!(t.fns[0].params, ["self"]);
        assert!(t.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn cfg_test_mods_mark_items_and_ranges() {
        let t = tree(
            "fn lib_code() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
               fn helper() {}\n\
             }\n",
        );
        assert!(!t.fns[0].in_test);
        assert!(t.fns[1].in_test);
        assert_eq!(t.test_ranges, [(3, 5)]);
        assert!(t.line_in_test(4));
        assert!(!t.line_in_test(1));
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let t = tree(
            "macro_rules! gen {\n\
               ($name:ident) => {\n\
                 impl Factory for $name { fn family(&self) -> &str { \"x\" } }\n\
               };\n\
             }\n\
             fn after() {}\n",
        );
        assert_eq!(t.fns.len(), 1, "{:?}", t.fns);
        assert_eq!(t.fns[0].name, "after");
    }

    #[test]
    fn fn_at_finds_the_innermost_enclosing_fn() {
        let src = "fn outer() { x(); }\nfn second() { y(); }\n";
        let lexed = lex(src);
        let t = ItemTree::parse(&lexed.toks);
        let y_ix = lexed
            .toks
            .iter()
            .position(|tok| tok.ident() == Some("y"))
            .expect("y token");
        assert_eq!(t.fn_at(y_ix).map(|f| f.name.as_str()), Some("second"));
    }

    #[test]
    fn use_tree_braces_do_not_end_the_scope() {
        // `use a::{B, C};` carries a brace group no item owns; if the
        // parser steps into it, the `}` reads as end-of-file and every
        // later item vanishes.
        let src = "use std::time::{Instant, SystemTime};\nfn after() {}\n";
        let lexed = lex(src);
        let t = ItemTree::parse(&lexed.toks);
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "after");
    }

    #[test]
    fn token_count_matches_the_lexer() {
        let src = "struct S { a: u32 }\nenum E { V }\nfn f() {}\n";
        let lexed = lex(src);
        let t = ItemTree::parse(&lexed.toks);
        assert_eq!(t.token_count(), lexed.toks.len());
        assert_eq!(t.fns.len(), 1);
    }
}
