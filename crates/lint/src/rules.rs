//! The rule catalog and the per-file scanner.
//!
//! Five rules guard the properties the test suite can only pin
//! run-by-run: the `ServingEngine` is a *deterministic* discrete-event
//! simulator and seeded sweeps must reproduce bit-for-bit, so the
//! source level must not smuggle in iteration-order randomness, wall
//! clocks, ambient RNGs, or unannotated panics. Each rule can be
//! suppressed per site with a `// lint: allow(<rule>, <reason>)`
//! comment on the offending line or the line directly above it (R5
//! also accepts the shorthand `// lint: order-sensitive`); everything
//! else is counted against the committed [`Baseline`](crate::Baseline).

use crate::lexer::{is_float_literal, lex, Comment, Tok, TokKind};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// The rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: `HashMap`/`HashSet` in the deterministic crates
    /// (`sim`/`serve`/`bench`). Their per-process-randomized iteration
    /// order is exactly the nondeterminism the engine promises not to
    /// have; use `BTreeMap`/`BTreeSet` or explicitly sorted iteration.
    NondetCollections,
    /// R2: wall clocks and ambient randomness (`Instant`, `SystemTime`,
    /// `thread_rng`) anywhere in the workspace. All time is simulated
    /// and all randomness flows from seeded `ArrivalProcess` plumbing.
    AmbientTime,
    /// R3: `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!` in library code. Return a typed
    /// [`SimError`](../dfx_sim/enum.SimError.html) instead, or annotate
    /// why the panic is unreachable. Test modules, integration tests,
    /// examples, benches and binaries are exempt.
    PanicPolicy,
    /// R4: every `unsafe` keyword needs a `// SAFETY:` comment on the
    /// same line or within the three lines above it.
    UndocumentedUnsafe,
    /// R5: `+=` on a float inside a loop body, or an explicit
    /// `.sum::<f32/f64>()`, in the timing-critical modules
    /// (`sim`/`serve`/`core` library code). Float accumulation order is
    /// observable in the reports; acknowledge it with
    /// `// lint: order-sensitive` where the order is pinned by
    /// construction.
    FloatAccumulation,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 5] = [
        Rule::NondetCollections,
        Rule::AmbientTime,
        Rule::PanicPolicy,
        Rule::UndocumentedUnsafe,
        Rule::FloatAccumulation,
    ];

    /// Stable kebab-case name — the key in `lint-baseline.toml` and in
    /// `// lint: allow(<rule>, <reason>)` annotations.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::NondetCollections => "nondet-collections",
            Rule::AmbientTime => "ambient-time",
            Rule::PanicPolicy => "panic-policy",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::FloatAccumulation => "float-accumulation",
        }
    }

    /// One-line description for reports.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::NondetCollections => {
                "HashMap/HashSet in a deterministic crate (sim/serve/bench): iteration order is \
                 randomized per process — use BTreeMap/BTreeSet or sorted iteration"
            }
            Rule::AmbientTime => {
                "wall clock or ambient randomness (Instant/SystemTime/thread_rng): all time is \
                 simulated, all randomness is seeded"
            }
            Rule::PanicPolicy => {
                "unwrap/expect/panic! in library code: return a typed SimError or annotate why \
                 the panic is unreachable"
            }
            Rule::UndocumentedUnsafe => "unsafe without a // SAFETY: comment",
            Rule::FloatAccumulation => {
                "float accumulation in a loop body of a timing-critical module: summation order \
                 is observable — acknowledge with // lint: order-sensitive"
            }
        }
    }

    /// Parses a slug back into a rule.
    pub fn from_slug(slug: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.slug() == slug)
    }
}

/// One finding: a rule, a workspace-relative file, a 1-based position
/// and the offending source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub excerpt: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.slug(),
            self.excerpt.trim()
        )
    }
}

/// Which rules apply to a file, derived from its workspace-relative
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// Inside `crates/sim`, `crates/serve` or `crates/bench`: the
    /// crates whose behaviour must be bit-reproducible (R1).
    pub deterministic_crate: bool,
    /// Library code: not under `tests/`, `examples/`, `benches/` or a
    /// `bin/` target (R3's exemptions).
    pub library_code: bool,
    /// Timing-critical library sources: `crates/{sim,serve,core}/src`
    /// (R5's scope).
    pub timing_critical: bool,
}

impl FileScope {
    /// Scope for a workspace-relative path (`/`-separated).
    pub fn for_path(path: &str) -> FileScope {
        let p = path.replace('\\', "/");
        let deterministic_crate = ["crates/sim/", "crates/serve/", "crates/bench/"]
            .iter()
            .any(|pre| p.starts_with(pre));
        let library_code = !(p.contains("/tests/")
            || p.contains("/examples/")
            || p.contains("/benches/")
            || p.contains("/bin/")
            || p.starts_with("tests/")
            || p.starts_with("examples/"));
        let timing_critical = ["crates/sim/src/", "crates/serve/src/", "crates/core/src/"]
            .iter()
            .any(|pre| p.starts_with(pre));
        FileScope {
            deterministic_crate,
            library_code,
            timing_critical,
        }
    }
}

/// Scans one file. `path` decides the scope (see [`FileScope`]); `src`
/// is the file's text. Returned violations are ordered by position.
pub fn scan_file(path: &str, src: &str) -> Vec<Violation> {
    let scope = FileScope::for_path(path);
    let lexed = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let excerpt = |line: usize| -> String {
        lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let allows = AllowIndex::new(&lexed.comments);
    let test_spans = cfg_test_spans(&lexed.toks);
    let in_test_code = |line: usize| test_spans.iter().any(|&(a, b)| (a..=b).contains(&line));

    let mut out = Vec::new();
    let mut push = |rule: Rule, tok: &Tok| {
        if !allows.allowed(rule, tok.line) {
            out.push(Violation {
                rule,
                file: path.to_string(),
                line: tok.line,
                col: tok.col,
                excerpt: excerpt(tok.line),
            });
        }
    };

    let toks = &lexed.toks;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| &toks[j]);
        let next = toks.get(i + 1);
        let next_is = |s: &str| next.is_some_and(|t| t.kind == TokKind::Punct && t.text == s);
        let prev_is = |s: &str| prev.is_some_and(|t| t.kind == TokKind::Punct && t.text == s);

        // R1 — nondeterministic collections in deterministic crates.
        if scope.deterministic_crate && matches!(tok.text.as_str(), "HashMap" | "HashSet") {
            push(Rule::NondetCollections, tok);
        }

        // R2 — wall clock and ambient randomness, workspace-wide.
        if matches!(tok.text.as_str(), "Instant" | "SystemTime" | "thread_rng") {
            push(Rule::AmbientTime, tok);
        }

        // R3 — panic sites in library code.
        if scope.library_code && !in_test_code(tok.line) {
            let method_panic =
                matches!(tok.text.as_str(), "unwrap" | "expect") && prev_is(".") && next_is("(");
            let macro_panic = matches!(
                tok.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && next_is("!");
            if method_panic || macro_panic {
                push(Rule::PanicPolicy, tok);
            }
        }

        // R4 — undocumented unsafe, workspace-wide.
        if tok.text == "unsafe" && !allows.safety_documented(tok.line) {
            push(Rule::UndocumentedUnsafe, tok);
        }
    }

    if scope.timing_critical {
        scan_float_accumulation(path, toks, &allows, &in_test_code, &excerpt, &mut out);
    }

    out.sort_by_key(|v| (v.line, v.col));
    out
}

/// R5: `+=` on a float-typed identifier inside a loop body, and
/// explicit `.sum::<f32/f64>()` calls (an iterator sum *is* a loop).
///
/// Float-typed identifiers are inferred lexically, per file:
/// `let [mut] name: f32/f64`, `let [mut] name = <expr containing a
/// float literal>`, and `name: f32/f64` field/parameter declarations.
/// Tuple bindings are not tracked — the heuristic prefers missing a
/// site over flagging an integer accumulator.
fn scan_float_accumulation(
    path: &str,
    toks: &[Tok],
    allows: &AllowIndex,
    in_test_code: &dyn Fn(usize) -> bool,
    excerpt: &dyn Fn(usize) -> String,
    out: &mut Vec<Violation>,
) {
    let float_idents = collect_float_idents(toks);

    // Loop depth per token: a `{` opened after `while`/`loop` or a
    // `for .. in` header (before any `;` or `{`) starts a loop body; a
    // `for` without `in` (`impl Trait for Type`, `for<'a>`) does not.
    let mut loop_depth_at = vec![0usize; toks.len()];
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_for = false;
    let mut pending_loop = false;
    let mut depth = 0usize;
    for (i, tok) in toks.iter().enumerate() {
        loop_depth_at[i] = depth;
        match (tok.kind, tok.text.as_str()) {
            (TokKind::Ident, "for") => pending_for = true,
            (TokKind::Ident, "in") if pending_for => pending_loop = true,
            (TokKind::Ident, "while" | "loop") => pending_loop = true,
            (TokKind::Punct, ";") => (pending_for, pending_loop) = (false, false),
            (TokKind::Punct, "{") => {
                stack.push(pending_loop);
                if pending_loop {
                    depth += 1;
                }
                (pending_for, pending_loop) = (false, false);
            }
            (TokKind::Punct, "}") if stack.pop().unwrap_or(false) => {
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }

    let mut push = |tok: &Tok| {
        if !allows.allowed(Rule::FloatAccumulation, tok.line) && !in_test_code(tok.line) {
            out.push(Violation {
                rule: Rule::FloatAccumulation,
                file: path.to_string(),
                line: tok.line,
                col: tok.col,
                excerpt: excerpt(tok.line),
            });
        }
    };

    for (i, tok) in toks.iter().enumerate() {
        // `.sum::<f64>()` / `.sum::<f32>()`.
        if tok.kind == TokKind::Ident && tok.text == "sum" {
            let turbofish_float = toks.get(i + 1).is_some_and(|t| t.text == "::")
                && toks.get(i + 2).is_some_and(|t| t.text == "<")
                && toks
                    .get(i + 3)
                    .is_some_and(|t| matches!(t.text.as_str(), "f32" | "f64"));
            let method = i > 0 && toks[i - 1].text == ".";
            if method && turbofish_float {
                push(tok);
            }
            continue;
        }
        // Float `+=` inside a loop body.
        if tok.kind == TokKind::Punct && tok.text == "+=" && loop_depth_at[i] > 0 {
            if let Some(base) = assign_target_ident(toks, i) {
                if float_idents.contains(&base) {
                    push(tok);
                }
            }
        }
    }
}

/// The identifier a `+=` at token index `i` assigns to: walks back over
/// balanced `[...]`/`(...)` index and call groups to the field or
/// variable name (`busy[server] +=` → `busy`,
/// `run.rel_ms +=` → `rel_ms`).
fn assign_target_ident(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i;
    loop {
        j = j.checked_sub(1)?;
        match (toks[j].kind, toks[j].text.as_str()) {
            (TokKind::Punct, "]" | ")") => {
                let open = if toks[j].text == "]" { "[" } else { "(" };
                let close = toks[j].text.clone();
                let mut depth = 1usize;
                while depth > 0 {
                    j = j.checked_sub(1)?;
                    if toks[j].kind == TokKind::Punct {
                        if toks[j].text == close {
                            depth += 1;
                        } else if toks[j].text == open {
                            depth -= 1;
                        }
                    }
                }
            }
            (TokKind::Ident, _) => return Some(toks[j].text.clone()),
            _ => return None,
        }
    }
}

/// Lexically infers the float-typed identifiers of one file (see
/// [`scan_float_accumulation`]).
fn collect_float_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut floats = BTreeSet::new();
    let is_float_ty =
        |t: &Tok| t.kind == TokKind::Ident && matches!(t.text.as_str(), "f32" | "f64");
    for (i, tok) in toks.iter().enumerate() {
        // `name: f32/f64` — struct fields, parameters, typed lets.
        if tok.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.text == ":") {
            let mut j = i + 2;
            // Skip reference sigils (`&`, `&mut`, lifetimes).
            while toks
                .get(j)
                .is_some_and(|t| t.text == "&" || t.text == "mut" || t.kind == TokKind::Lifetime)
            {
                j += 1;
            }
            if toks.get(j).is_some_and(is_float_ty) {
                floats.insert(tok.text.clone());
            }
        }
        // `let [mut] name = <expr with a float literal>;`
        if tok.kind == TokKind::Ident && tok.text == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if toks.get(j + 1).is_none_or(|t| t.text != "=") {
                continue;
            }
            let mut k = j + 2;
            while let Some(t) = toks.get(k) {
                if t.kind == TokKind::Punct && t.text == ";" {
                    break;
                }
                let floaty =
                    (t.kind == TokKind::Number && is_float_literal(&t.text)) || is_float_ty(t);
                if floaty {
                    floats.insert(name.text.clone());
                    break;
                }
                k += 1;
            }
        }
    }
    floats
}

/// Per-line index of `// lint: allow(...)` / `// lint: order-sensitive`
/// / `// SAFETY:` annotations. An annotation suppresses findings on its
/// own line and the line directly below it (`SAFETY:` reaches three
/// lines down, so a comment block above an `unsafe` fn still counts).
struct AllowIndex {
    /// line → slugs allowed there.
    allows: BTreeMap<usize, Vec<String>>,
    /// Lines carrying a `SAFETY:` comment.
    safety: BTreeSet<usize>,
}

impl AllowIndex {
    fn new(comments: &[Comment]) -> AllowIndex {
        let mut allows: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        let mut safety = BTreeSet::new();
        for c in comments {
            if c.text.contains("SAFETY:") {
                safety.insert(c.line);
            }
            let Some(rest) = c.text.split("lint:").nth(1) else {
                continue;
            };
            let rest = rest.trim_start();
            if rest.starts_with("order-sensitive") {
                allows
                    .entry(c.line)
                    .or_default()
                    .push(Rule::FloatAccumulation.slug().to_string());
            }
            if let Some(args) = rest.strip_prefix("allow(") {
                if let Some(inner) = args.split(')').next() {
                    let slug = inner.split(',').next().unwrap_or("").trim();
                    allows.entry(c.line).or_default().push(slug.to_string());
                }
            }
        }
        AllowIndex { allows, safety }
    }

    fn allowed(&self, rule: Rule, line: usize) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows
                .get(l)
                .is_some_and(|slugs| slugs.iter().any(|s| s == rule.slug()))
        })
    }

    fn safety_documented(&self, line: usize) -> bool {
        (line.saturating_sub(3)..=line).any(|l| self.safety.contains(&l))
    }
}

/// Line spans (inclusive) of `#[cfg(test)] mod … { … }` blocks: R3 and
/// R5 exempt them, matching the policy that tests may panic freely.
fn cfg_test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "[")
            && toks.get(i + 2).is_some_and(|t| t.text == "cfg")
            && toks.get(i + 3).is_some_and(|t| t.text == "(")
            && toks.get(i + 4).is_some_and(|t| t.text == "test")
            && toks.get(i + 5).is_some_and(|t| t.text == ")")
            && toks.get(i + 6).is_some_and(|t| t.text == "]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip further attributes between the cfg and the item.
        while toks.get(j).is_some_and(|t| t.text == "#")
            && toks.get(j + 1).is_some_and(|t| t.text == "[")
        {
            let mut depth = 0usize;
            j += 1;
            while let Some(t) = toks.get(j) {
                if t.text == "[" {
                    depth += 1;
                } else if t.text == "]" {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Only `mod` items open an exempt span; a cfg(test) on a lone
        // item (a use, a helper fn) is rare and stays in scope.
        if toks.get(j).is_none_or(|t| t.text != "mod") {
            i += 1;
            continue;
        }
        // mod <name> { … } — brace-match to the end of the module.
        while let Some(t) = toks.get(j) {
            if t.text == "{" {
                break;
            }
            j += 1;
        }
        let start_line = toks[i].line;
        let mut depth = 0usize;
        let mut end_line = start_line;
        while let Some(t) = toks.get(j) {
            if t.text == "{" {
                depth += 1;
            } else if t.text == "}" {
                depth -= 1;
                if depth == 0 {
                    end_line = t.line;
                    j += 1;
                    break;
                }
            }
            end_line = t.line;
            j += 1;
        }
        spans.push((start_line, end_line));
        i = j;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<Rule> {
        scan_file(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn hashmap_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_hit("crates/sim/src/x.rs", src),
            vec![Rule::NondetCollections]
        );
        assert_eq!(rules_hit("crates/hw/src/x.rs", src), vec![]);
    }

    #[test]
    fn allow_annotations_suppress_on_the_same_or_previous_line() {
        let same =
            "use std::collections::HashMap; // lint: allow(nondet-collections, lookup-only)\n";
        assert_eq!(rules_hit("crates/serve/src/x.rs", same), vec![]);
        let above =
            "// lint: allow(nondet-collections, lookup-only)\nuse std::collections::HashMap;\n";
        assert_eq!(rules_hit("crates/serve/src/x.rs", above), vec![]);
        let wrong_rule = "// lint: allow(ambient-time, nope)\nuse std::collections::HashMap;\n";
        assert_eq!(
            rules_hit("crates/serve/src/x.rs", wrong_rule),
            vec![Rule::NondetCollections]
        );
    }

    #[test]
    fn panic_policy_exempts_tests_examples_and_cfg_test_modules() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_hit("crates/sim/src/x.rs", src),
            vec![Rule::PanicPolicy]
        );
        assert_eq!(rules_hit("tests/x.rs", src), vec![]);
        assert_eq!(rules_hit("examples/x.rs", src), vec![]);
        assert_eq!(rules_hit("crates/bench/src/bin/x.rs", src), vec![]);
        let with_tests = "fn f() -> Option<()> { None }\n\
                          #[cfg(test)]\nmod tests {\n    fn g() { f().unwrap(); }\n}\n";
        assert_eq!(rules_hit("crates/sim/src/x.rs", with_tests), vec![]);
    }

    #[test]
    fn macro_panics_are_flagged_and_annotations_clear_them() {
        let src = "fn f() { panic!(\"boom\"); }\n";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec![Rule::PanicPolicy]
        );
        let ok = "fn f() {\n    // lint: allow(panic-policy, invariant pinned by tests)\n    panic!(\"boom\");\n}\n";
        assert_eq!(rules_hit("crates/core/src/x.rs", ok), vec![]);
    }

    #[test]
    fn unsafe_requires_a_nearby_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(
            rules_hit("crates/num/src/x.rs", bad),
            vec![Rule::UndocumentedUnsafe]
        );
        let good = "fn f() {\n    // SAFETY: guarded by the bounds check above.\n    unsafe { do_it() }\n}\n";
        assert_eq!(rules_hit("crates/num/src/x.rs", good), vec![]);
    }

    #[test]
    fn float_accumulation_fires_in_loops_of_timing_critical_modules() {
        let src = "fn f() {\n    let mut total = 0.0f64;\n    for x in xs {\n        total += x;\n    }\n}\n";
        assert_eq!(
            rules_hit("crates/sim/src/x.rs", src),
            vec![Rule::FloatAccumulation]
        );
        // Same code outside the timing-critical scope: silent.
        assert_eq!(rules_hit("crates/isa/src/x.rs", src), vec![]);
        // Integer accumulators in loops: silent.
        let int =
            "fn f() {\n    let mut n = 0usize;\n    for x in xs {\n        n += x;\n    }\n}\n";
        assert_eq!(rules_hit("crates/sim/src/x.rs", int), vec![]);
        // Outside a loop: silent (no accumulation order to observe).
        let flat = "fn f() {\n    let mut t = 0.0;\n    t += 1.0;\n}\n";
        assert_eq!(rules_hit("crates/sim/src/x.rs", flat), vec![]);
    }

    #[test]
    fn order_sensitive_shorthand_acknowledges_float_accumulation() {
        let src = "fn f(ms: f64) {\n    let mut total = 0.0f64;\n    while go() {\n        // lint: order-sensitive — epoch-relative by design\n        total += ms;\n    }\n    let s = xs.iter().sum::<f64>(); // lint: order-sensitive\n}\n";
        assert_eq!(rules_hit("crates/serve/src/x.rs", src), vec![]);
    }

    #[test]
    fn typed_sums_are_flagged_in_scope() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        assert_eq!(
            rules_hit("crates/serve/src/x.rs", src),
            vec![Rule::FloatAccumulation]
        );
        // Integer sums are fine.
        let int = "fn f(xs: &[usize]) -> usize { xs.iter().sum::<usize>() }\n";
        assert_eq!(rules_hit("crates/serve/src/x.rs", int), vec![]);
    }

    #[test]
    fn indexed_and_field_targets_resolve_to_their_base_identifier() {
        let src = "struct R { rel_ms: f64 }\nfn f(r: &mut R, busy: &mut [f64], ev: f64) {\n    let mut busy_ms = vec![0.0f64; 4];\n    loop {\n        busy_ms[0] += ev;\n        r.rel_ms += ev;\n    }\n}\n";
        let hits = rules_hit("crates/serve/src/x.rs", src);
        assert_eq!(hits, vec![Rule::FloatAccumulation, Rule::FloatAccumulation]);
    }

    #[test]
    fn ambient_time_fires_everywhere() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_hit("crates/hw/src/x.rs", src),
            vec![Rule::AmbientTime]
        );
        assert_eq!(rules_hit("tests/x.rs", src), vec![Rule::AmbientTime]);
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src = "fn f() { let s = \"HashMap unwrap() Instant\"; } // HashMap unwrap Instant\n";
        assert_eq!(rules_hit("crates/sim/src/x.rs", src), vec![]);
    }
}
