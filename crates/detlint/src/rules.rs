//! The determinism-contract rule catalogue.
//!
//! Every rule is a resolution-free token-sequence pattern over the
//! [`crate::lexer`] output — exact about comments and string literals,
//! deliberately naive about name resolution (there is no `syn` in
//! `vendor/`, and the patterns below don't need it).
//!
//! | rule | what it catches | why it breaks determinism |
//! |------|-----------------|---------------------------|
//! | `ambient-rng` | `thread_rng`, `from_entropy`, `rand::random`, `OsRng`, `getrandom` | all randomness must derive from per-trial seeds, never ambient entropy |
//! | `addr-as-key` | pointer-to-`usize` casts (`as *const _ as usize`, `.as_ptr() as usize`) | addresses change per run; ordering or keying by them leaks ASLR into output |
//! | `stray-print` | `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in library code | the sink and `ProgressThrottle` are the only sanctioned outputs; stray prints interleave nondeterministically under threads |
//! | `forbid-unsafe-header` | a crate root without `#![forbid(unsafe_code)]` | `unsafe` is where data races (and thus nondeterminism) enter |
//! | `bare-allow` | `#[allow(…)]` with no justification comment | every suppressed diagnostic needs a reviewable reason |
//! | `unwrap-ratchet` | per-crate `.unwrap()` counts above the committed budget | budgets in `detlint.toml` may only go down; new code uses `.expect("…")` |
//! | `invalid-pragma` | malformed `detlint::allow` pragmas | an exemption with no reason is a silent hole in the contract |
//! | `seed-provenance` | `seed_from_u64`/`from_seed` fed a literal in library code | a hard-coded seed silently decouples an RNG from the per-trial seed chain |
//! | `panic-ratchet` | per-crate `panic!`/`unreachable!`/`[idx]` counts above the committed budget | a panic in a worker thread kills determinism *and* the trial |
//!
//! `seed-provenance`, `panic-ratchet` and `stray-print`'s test-mod
//! exemption ride the [`crate::parser`] item tree; the rest are
//! token-sequence patterns.
//!
//! The wall-clock and hash-collection bans are not here: the workspace
//! `clippy.toml` owns them (`disallowed-methods` for `Instant::now` /
//! `SystemTime::now`, `disallowed-types` for `HashMap` / `HashSet`), and
//! clippy resolves names where this lint only matches tokens.

use crate::lexer::{lex, Comment, Tok};
use crate::parser::ItemTree;
use crate::pragma::{parse_pragmas, Pragma};
use crate::report::Finding;

/// Identifies one rule of the catalogue (see the module docs for the
/// full table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    AmbientRng,
    AddrAsKey,
    StrayPrint,
    ForbidUnsafeHeader,
    BareAllow,
    UnwrapRatchet,
    InvalidPragma,
    SeedProvenance,
    PanicRatchet,
}

impl Rule {
    /// Every rule, in catalogue order.
    pub const ALL: [Rule; 9] = [
        Rule::AmbientRng,
        Rule::AddrAsKey,
        Rule::StrayPrint,
        Rule::ForbidUnsafeHeader,
        Rule::BareAllow,
        Rule::UnwrapRatchet,
        Rule::InvalidPragma,
        Rule::SeedProvenance,
        Rule::PanicRatchet,
    ];

    /// The kebab-case id used in reports and pragmas.
    pub fn id(self) -> &'static str {
        match self {
            Rule::AmbientRng => "ambient-rng",
            Rule::AddrAsKey => "addr-as-key",
            Rule::StrayPrint => "stray-print",
            Rule::ForbidUnsafeHeader => "forbid-unsafe-header",
            Rule::BareAllow => "bare-allow",
            Rule::UnwrapRatchet => "unwrap-ratchet",
            Rule::InvalidPragma => "invalid-pragma",
            Rule::SeedProvenance => "seed-provenance",
            Rule::PanicRatchet => "panic-ratchet",
        }
    }

    /// Resolves a pragma/report id back to the rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line description for `--rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::AmbientRng => {
                "ambient entropy (`thread_rng`, `from_entropy`, `rand::random`, `OsRng`)"
            }
            Rule::AddrAsKey => "pointer-to-`usize` cast usable as an ordering key",
            Rule::StrayPrint => "`println!`-family output from library code",
            Rule::ForbidUnsafeHeader => "crate root missing `#![forbid(unsafe_code)]`",
            Rule::BareAllow => "`#[allow(…)]` without a justification comment",
            Rule::UnwrapRatchet => ".unwrap() count above the crate's committed budget",
            Rule::InvalidPragma => "malformed `detlint::allow` pragma",
            Rule::SeedProvenance => "RNG seeded from a literal instead of the per-trial seed chain",
            Rule::PanicRatchet => {
                "panic!/unreachable!/[idx] count above the crate's committed budget"
            }
        }
    }
}

/// Where a file sits in the workspace — determines which rules apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileContext {
    /// The crate root (`src/lib.rs`): must carry `#![forbid(unsafe_code)]`.
    pub is_lib_rs: bool,
    /// `src/main.rs` or `src/bin/**`: a binary entry point, where
    /// `stray-print` does not apply (stdout/stderr are its contract).
    pub is_binary_root: bool,
    /// An integration-test or example file (root `tests/`, `examples/`):
    /// prints are its own business, and the panic/seed rules don't bind.
    pub is_test_code: bool,
}

/// Everything one file contributes: findings plus its `.unwrap()` and
/// panic-surface counts (folded per crate by the workspace driver for
/// the two ratchets).
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub unwrap_count: u64,
    pub panic_count: u64,
}

/// Lints one file's source text.
pub fn check_file(file: &str, src: &str, ctx: &FileContext) -> FileReport {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let tree = ItemTree::parse(toks);
    let (pragmas, pragma_errors) = parse_pragmas(&lexed.comments);
    let mut report = FileReport::default();

    for error in &pragma_errors {
        report.findings.push(Finding {
            rule: Rule::InvalidPragma,
            file: file.to_string(),
            line: error.line,
            col: 1,
            message: error.message.clone(),
        });
    }

    let mut raw = Vec::new();
    scan_ambient_rng(file, toks, &mut raw);
    scan_addr_as_key(file, toks, &mut raw);
    scan_stray_print(file, toks, &tree, ctx, &mut raw);
    scan_bare_allow(file, toks, &lexed.comments, &mut raw);
    scan_seed_provenance(file, toks, &tree, ctx, &mut raw);
    if ctx.is_lib_rs && !has_forbid_unsafe_header(toks) {
        raw.push(Finding {
            rule: Rule::ForbidUnsafeHeader,
            file: file.to_string(),
            line: 1,
            col: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    report.unwrap_count = count_unwraps(toks);
    report.panic_count = count_panic_surface(toks, &tree, ctx);

    // Pragma suppression: exact (rule, reach) matches only.
    let reaches: Vec<(&Pragma, (u32, u32))> =
        pragmas.iter().map(|p| (p, pragma_reach(p, toks))).collect();
    report.findings.extend(raw.into_iter().filter(|finding| {
        !reaches.iter().any(|(pragma, (lo, hi))| {
            pragma.rule == finding.rule && (pragma.file_wide || (*lo..=*hi).contains(&finding.line))
        })
    }));
    report
}

/// The lines a pragma exempts: its own line when trailing code, else the
/// run down to the first following code line that is not attribute-only —
/// so a pragma above `#[allow(clippy::…)]` reaches the statement below
/// the attribute, not just the attribute.
fn pragma_reach(pragma: &Pragma, toks: &[Tok]) -> (u32, u32) {
    let mut lines: Vec<(u32, bool)> = Vec::new(); // (line, starts_with_attr)
    for tok in toks {
        match lines.last_mut() {
            Some((line, _)) if *line == tok.line => {}
            _ => lines.push((tok.line, tok.is_punct('#'))),
        }
    }
    if lines.iter().any(|&(line, _)| line == pragma.line) {
        return (pragma.line, pragma.line); // trailing pragma
    }
    let target = lines
        .iter()
        .find(|&&(line, attr)| line > pragma.line && !attr)
        .map(|&(line, _)| line)
        .unwrap_or(pragma.line);
    (pragma.line, target)
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).and_then(Tok::ident)
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// Ambient entropy sources — everything that isn't a derived per-trial seed.
fn scan_ambient_rng(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let Some(name) = ident_at(toks, i) else {
            continue;
        };
        let hit = match name {
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => true,
            "random" => {
                i >= 3
                    && ident_at(toks, i - 3) == Some("rand")
                    && punct_at(toks, i - 2, ':')
                    && punct_at(toks, i - 1, ':')
            }
            _ => false,
        };
        if hit {
            out.push(Finding {
                rule: Rule::AmbientRng,
                file: file.to_string(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "`{name}` draws ambient entropy — all randomness must derive from the \
                     per-trial seed (SplitMix64 over campaign seed, scenario and trial index)"
                ),
            });
        }
    }
}

/// `… as usize` with a pointer source in the lookback window:
/// `&x as *const _ as usize` or `v.as_ptr() as usize`.
fn scan_addr_as_key(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("as") || ident_at(toks, i + 1) != Some("usize") {
            continue;
        }
        let window = &toks[i.saturating_sub(8)..i];
        let pointerish = window.iter().enumerate().any(|(k, tok)| {
            tok.ident() == Some("as_ptr")
                || (tok.is_punct('*')
                    && matches!(
                        window.get(k + 1).and_then(Tok::ident),
                        Some("const" | "mut")
                    ))
        });
        if pointerish {
            out.push(Finding {
                rule: Rule::AddrAsKey,
                file: file.to_string(),
                line: toks[i].line,
                col: toks[i].col,
                message: "pointer cast to `usize` — addresses vary per run (ASLR); never key or \
                          order by them"
                    .to_string(),
            });
        }
    }
}

/// `println!`-family macros (and the `todo!` placeholder, which prints
/// its way into a panic) outside binary roots and `#[cfg(test)]` mods.
fn scan_stray_print(
    file: &str,
    toks: &[Tok],
    tree: &ItemTree,
    ctx: &FileContext,
    out: &mut Vec<Finding>,
) {
    if ctx.is_binary_root || ctx.is_test_code {
        return;
    }
    for i in 0..toks.len() {
        let Some(name @ ("println" | "eprintln" | "print" | "eprint" | "dbg" | "todo")) =
            ident_at(toks, i)
        else {
            continue;
        };
        if !punct_at(toks, i + 1, '!') {
            continue;
        }
        let line = toks[i].line;
        if tree.line_in_test(line) {
            continue;
        }
        let message = if name == "todo" {
            "`todo!` in library code — unfinished code panics at runtime; finish it or \
             return an error"
                .to_string()
        } else {
            format!(
                "`{name}!` in library code — the record sink and `ProgressThrottle` are the \
                 only sanctioned outputs"
            )
        };
        out.push(Finding {
            rule: Rule::StrayPrint,
            file: file.to_string(),
            line,
            col: toks[i].col,
            message,
        });
    }
}

/// `seed_from_u64`/`from_seed` whose argument cannot be traced to a
/// seed-bearing name: a fn parameter, `self` (config fields), any ident
/// containing `seed`, or a local `let` bound from one of those.  Test
/// code is exempt — a fixed seed is exactly what a test wants.
fn scan_seed_provenance(
    file: &str,
    toks: &[Tok],
    tree: &ItemTree,
    ctx: &FileContext,
    out: &mut Vec<Finding>,
) {
    // Binaries are entry points: a fixed demo seed at the top of `main`
    // IS the provenance.  The rule polices library code, where a literal
    // silently forks the per-trial seed chain.
    if ctx.is_test_code || ctx.is_binary_root {
        return;
    }
    for i in 0..toks.len() {
        let Some(name @ ("seed_from_u64" | "from_seed")) = ident_at(toks, i) else {
            continue;
        };
        if !punct_at(toks, i + 1, '(') || tree.line_in_test(toks[i].line) {
            continue;
        }
        let Some(f) = tree.fn_at(i) else {
            continue; // not inside a fn body (a doc-test snippet, say)
        };
        if f.in_test {
            continue;
        }
        let Some((blo, bhi)) = f.body else { continue };
        let safe = safe_seed_names(&toks[blo..bhi], &f.params);
        // Argument span of the call.
        let mut depth = 0i32;
        let mut close = i + 1;
        for (k, t) in toks.iter().enumerate().take(bhi).skip(i + 1) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
        }
        let arg_traced = toks[i + 2..close]
            .iter()
            .filter_map(Tok::ident)
            .any(|id| is_seedish(id) || safe.contains(&id.to_string()));
        if !arg_traced {
            out.push(Finding {
                rule: Rule::SeedProvenance,
                file: file.to_string(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "`{name}` argument does not trace to a seed-bearing parameter or config \
                     field — a literal seed decouples this RNG from the per-trial seed chain"
                ),
            });
        }
    }
}

/// Whether an identifier is seed-bearing by name.
fn is_seedish(name: &str) -> bool {
    name.to_ascii_lowercase().contains("seed") || name == "self" || name == "config"
}

/// The set of names a seed argument may mention: the fn's parameters
/// plus locals transitively `let`-bound from a safe name (fixpoint over
/// the body's `let x = …;` statements).
fn safe_seed_names(body: &[Tok], params: &[String]) -> Vec<String> {
    let mut safe: Vec<String> = params.to_vec();
    loop {
        let mut grew = false;
        let mut i = 0;
        while i < body.len() {
            if ident_at(body, i) != Some("let") {
                i += 1;
                continue;
            }
            // Binding name: first non-`mut` ident after `let`.
            let mut j = i + 1;
            while ident_at(body, j) == Some("mut") {
                j += 1;
            }
            let Some(bound) = ident_at(body, j) else {
                i = j + 1;
                continue;
            };
            // RHS: from the `=` to the statement's `;` at bracket depth 0.
            let Some(eq) = (j..body.len().min(j + 8))
                .find(|&k| punct_at(body, k, '=') && !punct_at(body, k + 1, '='))
            else {
                i = j + 1;
                continue;
            };
            let mut depth = 0i32;
            let mut k = eq + 1;
            let mut traced = false;
            while k < body.len() {
                let t = &body[k];
                if depth == 0 && t.is_punct(';') {
                    break;
                }
                match &t.kind {
                    _ if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => depth += 1,
                    _ if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => depth -= 1,
                    _ => {}
                }
                if let Some(id) = t.ident() {
                    if is_seedish(id) || safe.iter().any(|s| s == id) {
                        traced = true;
                    }
                }
                k += 1;
            }
            if traced && !safe.iter().any(|s| s == bound) {
                safe.push(bound.to_string());
                grew = true;
            }
            i = k + 1;
        }
        if !grew {
            return safe;
        }
    }
}

/// Keywords that precede a `[` without making it an indexing site.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "dyn", "ref", "in", "as", "return", "break", "else", "move", "static", "const", "impl",
    "where", "let", "if", "while", "for", "loop", "unsafe", "pub", "use", "match",
];

/// Counts the panic surface of library code: `panic!`/`unreachable!`
/// sites plus `[idx]` indexing expressions (a `[` whose previous token
/// is a value — an ident, `)`, `]` or a literal), outside `#[cfg(test)]`
/// mods.  Binary roots and test files are a binary's/test's own
/// business.
fn count_panic_surface(toks: &[Tok], tree: &ItemTree, ctx: &FileContext) -> u64 {
    if ctx.is_binary_root || ctx.is_test_code {
        return 0;
    }
    let mut count = 0u64;
    for i in 0..toks.len() {
        if tree.line_in_test(toks[i].line) {
            continue;
        }
        if matches!(ident_at(toks, i), Some("panic" | "unreachable")) && punct_at(toks, i + 1, '!')
        {
            count += 1;
            continue;
        }
        if !punct_at(toks, i, '[') || i == 0 {
            continue;
        }
        let prev = &toks[i - 1];
        let is_value = match prev.ident() {
            Some(name) => !NON_INDEX_KEYWORDS.contains(&name),
            None => {
                prev.is_punct(')') || prev.is_punct(']') || prev.kind == crate::lexer::TokKind::Lit
            }
        };
        if is_value {
            count += 1;
        }
    }
    count
}

/// `#[allow(…)]` / `#![allow(…)]` without a justification: a non-doc
/// comment on the same line or ending on the line directly above.
fn scan_bare_allow(file: &str, toks: &[Tok], comments: &[Comment], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if !punct_at(toks, i, '#') {
            continue;
        }
        let j = if punct_at(toks, i + 1, '!') {
            i + 2
        } else {
            i + 1
        };
        if !punct_at(toks, j, '[') || ident_at(toks, j + 1) != Some("allow") {
            continue;
        }
        let line = toks[i].line;
        let justified = comments.iter().any(|c| {
            !c.doc
                && (c.line == line || c.end_line + 1 == line)
                && !c
                    .text
                    .trim_start_matches(['/', '*', ' ', '\t'])
                    .trim()
                    .is_empty()
        });
        if !justified {
            out.push(Finding {
                rule: Rule::BareAllow,
                file: file.to_string(),
                line,
                col: toks[i].col,
                message: "`#[allow(…)]` without a justification — add a `// why` comment on the \
                          same line or the line above"
                    .to_string(),
            });
        }
    }
}

/// `#![forbid(unsafe_code)]` anywhere in the token stream (it must be a
/// crate-root inner attribute to compile, so presence is enough).
fn has_forbid_unsafe_header(toks: &[Tok]) -> bool {
    (0..toks.len()).any(|i| {
        punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '!')
            && punct_at(toks, i + 2, '[')
            && ident_at(toks, i + 3) == Some("forbid")
            && punct_at(toks, i + 4, '(')
            && ident_at(toks, i + 5) == Some("unsafe_code")
    })
}

/// Counts `.unwrap()` call sites (test modules included — the ratchet
/// covers the whole crate).
fn count_unwraps(toks: &[Tok]) -> u64 {
    (0..toks.len())
        .filter(|&i| {
            punct_at(toks, i, '.')
                && ident_at(toks, i + 1) == Some("unwrap")
                && punct_at(toks, i + 2, '(')
                && punct_at(toks, i + 3, ')')
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str, ctx: &FileContext) -> Vec<(Rule, u32)> {
        check_file("test.rs", src, ctx)
            .findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn pragma_reaches_past_attributes() {
        let src = "fn f() {\n\
                   // detlint::allow(seed-provenance, reason = \"seed-independent output\")\n\
                   #[allow(unused_mut)] // the shuffle may be compiled out\n\
                   let mut rng = StdRng::seed_from_u64(7);\n\
                   }\n";
        assert!(findings(src, &FileContext::default()).is_empty());
    }

    #[test]
    fn trailing_pragma_covers_its_own_line_only() {
        let src = "fn f() {\n\
                   let a = rand::thread_rng(); // detlint::allow(ambient-rng, reason = \"demo\")\n\
                   let b = rand::thread_rng();\n\
                   }\n";
        assert_eq!(
            findings(src, &FileContext::default()),
            [(Rule::AmbientRng, 3)]
        );
    }

    #[test]
    fn ambient_rng_catches_the_catalogue() {
        let src = "fn f() { let r = rand::thread_rng(); let x = rand::random::<u64>(); }\n";
        let got = findings(src, &FileContext::default());
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|&(rule, _)| rule == Rule::AmbientRng));
        // `random` as a plain method name is not ambient.
        assert!(findings("fn f(g: &G) { g.random(); }\n", &FileContext::default()).is_empty());
    }

    #[test]
    fn addr_as_key_needs_a_pointer_source() {
        let scoped = FileContext::default();
        assert_eq!(
            findings(
                "fn f(x: &u8) -> usize { &x as *const _ as usize }\n",
                &scoped
            ),
            [(Rule::AddrAsKey, 1)]
        );
        assert_eq!(
            findings("fn f(v: &[u8]) -> usize { v.as_ptr() as usize }\n", &scoped),
            [(Rule::AddrAsKey, 1)]
        );
        // An innocent integer cast is not a pointer key.
        assert!(findings("fn f(n: u32) -> usize { n as usize }\n", &scoped).is_empty());
    }

    #[test]
    fn stray_print_skips_tests_and_binary_roots() {
        let src = "fn f() { println!(\"x\"); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { println!(\"fine in tests\"); }\n\
                   }\n";
        assert_eq!(
            findings(src, &FileContext::default()),
            [(Rule::StrayPrint, 1)]
        );
        let binary = FileContext {
            is_binary_root: true,
            ..FileContext::default()
        };
        assert!(findings(src, &binary).is_empty());
    }

    #[test]
    fn forbid_unsafe_header_only_on_lib_roots() {
        let ctx = FileContext {
            is_lib_rs: true,
            ..FileContext::default()
        };
        assert_eq!(
            findings("pub fn f() {}\n", &ctx),
            [(Rule::ForbidUnsafeHeader, 1)]
        );
        assert!(findings("#![forbid(unsafe_code)]\npub fn f() {}\n", &ctx).is_empty());
        assert!(findings("pub fn f() {}\n", &FileContext::default()).is_empty());
    }

    #[test]
    fn bare_allow_accepts_same_line_or_line_above() {
        let ctx = FileContext::default();
        assert_eq!(
            findings("#[allow(dead_code)]\nfn f() {}\n", &ctx),
            [(Rule::BareAllow, 1)]
        );
        assert!(findings(
            "#[allow(dead_code)] // scaffolding for PR 8\nfn f() {}\n",
            &ctx
        )
        .is_empty());
        assert!(findings(
            "// the builder keeps this arity\n#[allow(dead_code)]\nfn f() {}\n",
            &ctx
        )
        .is_empty());
        // A doc comment is documentation, not a justification.
        assert_eq!(
            findings("/// docs\n#[allow(dead_code)]\nfn f() {}\n", &ctx),
            [(Rule::BareAllow, 2)]
        );
    }

    #[test]
    fn todo_is_a_stray_print() {
        let src = "fn f() { todo!() }\n";
        assert_eq!(
            findings(src, &FileContext::default()),
            [(Rule::StrayPrint, 1)]
        );
    }

    #[test]
    fn seed_provenance_flags_literals_and_traces_names() {
        let ctx = FileContext::default();
        // A literal seed in library code is the violation.
        assert_eq!(
            findings("fn f() -> StdRng { StdRng::seed_from_u64(42) }\n", &ctx),
            [(Rule::SeedProvenance, 1)]
        );
        // A seed-bearing parameter is provenance.
        assert!(findings(
            "fn f(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }\n",
            &ctx
        )
        .is_empty());
        // Any parameter reaching the argument is provenance, whatever
        // its name.
        assert!(findings(
            "fn f(s: u64) -> StdRng { StdRng::seed_from_u64(s ^ 0xD1FF) }\n",
            &ctx
        )
        .is_empty());
        // Config fields via `self` are provenance.
        assert!(findings(
            "impl S { fn f(&self) -> StdRng { StdRng::seed_from_u64(self.config.seed) } }\n",
            &ctx
        )
        .is_empty());
        // A local bound from a parameter keeps its provenance (one-hop
        // `let` fixpoint).
        assert!(findings(
            "fn f(s: u64) -> StdRng { let mixed = s ^ 0xABCD; StdRng::seed_from_u64(mixed) }\n",
            &ctx
        )
        .is_empty());
        // Test code picks its seeds freely.
        assert!(findings(
            "#[cfg(test)]\nmod tests {\n fn f() -> StdRng { StdRng::seed_from_u64(7) }\n}\n",
            &ctx
        )
        .is_empty());
    }

    #[test]
    fn panic_surface_counts_panics_and_indexing_only() {
        let ctx = FileContext::default();
        let src = "fn f(v: &[u8], i: usize) -> u8 {\n\
                   if i > v.len() { panic!(\"oob\") }\n\
                   let x: [u8; 2] = [1, 2];\n\
                   let m = vec![1, 2];\n\
                   #[derive(Clone)]\n\
                   struct T;\n\
                   match i { 0 => unreachable!(), _ => v[i] + x[0] + m[0] }\n\
                   }\n\
                   #[cfg(test)]\nmod tests { fn t(v: &[u8]) -> u8 { v[0] } }\n";
        let report = check_file("t.rs", src, &ctx);
        // panic! + unreachable! + v[i] + x[0] + m[0]; the array type,
        // the array literal, vec![…], #[derive] and the test-mod index
        // do not count.
        assert_eq!(report.panic_count, 5);
        // Binary roots own their panics.
        let binary = FileContext {
            is_binary_root: true,
            ..FileContext::default()
        };
        assert_eq!(check_file("t.rs", src, &binary).panic_count, 0);
    }

    #[test]
    fn unwrap_counting_is_token_exact() {
        let report = check_file(
            "t.rs",
            "fn f() { a.unwrap(); /* .unwrap() */ let s = \".unwrap()\"; b.unwrap ( ) ; }\n",
            &FileContext::default(),
        );
        assert_eq!(report.unwrap_count, 2);
    }
}
