//! R6 — concurrency discipline, and R7 — determinism-contract enforcement.
//!
//! Both rules run over the [`crate::model`] function view:
//!
//! * **R6** tracks lock-guard bindings (`let g = x.lock()…` /
//!   `.read()` / `.write()` / a `lock*` helper returning a guard) through
//!   their live range (binding → end of the enclosing block, or an explicit
//!   `drop(g)`) and flags: a guard live across a `spawn` /
//!   `.submit*` / `thread::scope` boundary or a `move`-closure capture,
//!   nested lock acquisition while another guard is live (lock-order
//!   hazard).
//! * **R7** bans wall-clock and hasher-randomized constructs
//!   (`Instant`, `SystemTime`, `UNIX_EPOCH`, `thread::sleep`,
//!   `RandomState`, `HashMap`/`HashSet`) in the deterministic crates. The
//!   only escape is the [`R7_POLICY`] table: `bench` measures wall clock by
//!   design and `telemetry`'s `PhaseProfiler` is the sanctioned boundary
//!   where wall time may enter (DESIGN.md §9). Everything else must use
//!   access counts, epochs, and ordered containers.

use std::collections::BTreeSet;

use crate::lexer::{Tok, TokKind};
use crate::model::{self, FnModel};
use crate::{FileCtx, Finding, Rule};

/// Crates whose `src/` trees are held to the determinism contract (R7).
/// `workloads` joined with the trace codec: recorded streams must replay
/// byte-identically, so its generators and codec are bound like the sim.
pub const R7_CRATES: &[&str] = &[
    "core",
    "secmem",
    "crypto",
    "telemetry",
    "sim",
    "faults",
    "workloads",
];

/// Crates whose `src/` trees are held to lock discipline (R6): everything
/// that touches the service layer's locks.
pub const R6_CRATES: &[&str] = &["secmem", "core", "faults", "sim"];

/// The determinism policy table: `(crate, file suffix or None for the whole
/// crate, rationale)`. Files matching a row are exempt from R7.
pub const R7_POLICY: &[(&str, Option<&str>, &str)] = &[
    (
        "bench",
        None,
        "benchmark harness measures wall clock by design",
    ),
    (
        "telemetry",
        Some("profile.rs"),
        "PhaseProfiler is the sanctioned wall-clock boundary (DESIGN.md §9)",
    ),
];

/// Identifiers R7 bans outside the policy table, with the reason appended
/// to the finding.
const R7_BANNED: &[(&str, &str)] = &[
    ("Instant", "wall-clock read breaks replayable simulation"),
    ("SystemTime", "wall-clock read breaks replayable simulation"),
    ("UNIX_EPOCH", "wall-clock read breaks replayable simulation"),
    (
        "RandomState",
        "randomly seeded hasher is nondeterministic across runs",
    ),
    (
        "HashMap",
        "iteration order is randomized per process — use BTreeMap or an order-insensitive fold",
    ),
    (
        "HashSet",
        "iteration order is randomized per process — use BTreeSet or an order-insensitive fold",
    ),
];

/// Whether `(crate_name, rel)` is exempted from R7 by the policy table.
pub fn r7_exempt(crate_name: &str, rel: &str) -> bool {
    R7_POLICY
        .iter()
        .any(|(c, suffix, _)| *c == crate_name && suffix.is_none_or(|s| rel.ends_with(s)))
}

/// R7 — determinism-contract enforcement.
pub fn check_r7(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if r7_exempt(ctx.crate_name, ctx.rel) {
        return;
    }
    let toks = ctx.tokens;
    let mut seen = BTreeSet::new();
    for i in 0..toks.len() {
        if !ctx.included[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        if let Some((name, why)) = R7_BANNED.iter().find(|(n, _)| *n == t.text) {
            if seen.insert((t.line, *name)) {
                out.push(ctx.finding(
                    Rule::R7,
                    t.line,
                    format!("`{name}` on a deterministic path ({why})"),
                ));
            }
            continue;
        }
        // `thread::sleep(…)` / `sleep(…)`.
        if t.text == "sleep"
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
            && seen.insert((t.line, "sleep"))
        {
            out.push(ctx.finding(
                Rule::R7,
                t.line,
                "`sleep` on a deterministic path (timing must come from accesses and epochs, never wall clock)"
                    .to_string(),
            ));
        }
    }
}

/// A live lock-guard binding inside one function body.
struct Guard {
    /// Binding name.
    name: String,
    /// Token index just past the binding statement's `;`.
    live_from: usize,
    /// Token index of the end of the guard's scope (enclosing block close
    /// or `drop(name)`).
    live_to: usize,
    /// Line of the binding, for diagnostics.
    line: u32,
}

/// Method/helper names that may trail a lock acquisition without consuming
/// the guard (`.lock().unwrap_or_else(PoisonError::into_inner)` still binds
/// a guard; `.lock().unwrap().clone()` does not).
const GUARD_PRESERVING: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

/// Whether the initializer token range `[a, b)` acquires a lock and binds
/// the guard itself.
fn acquisition(toks: &[Tok], a: usize, b: usize) -> bool {
    let Some(close) = (a..b).find_map(|j| acquisition_at(toks, j, b)) else {
        return false;
    };
    // The rest of the initializer must only unwrap the guard, not extract a
    // value out of it.
    let mut k = close + 1;
    while k < b {
        let unwraps = toks[k].is_punct(".")
            && toks.get(k + 1).is_some_and(|m| {
                m.kind == TokKind::Ident && GUARD_PRESERVING.contains(&m.text.as_str())
            })
            && toks.get(k + 2).is_some_and(|p| p.is_punct("("));
        if !unwraps {
            return false;
        }
        match model::matching_fwd(toks, k + 2, "(", ")") {
            Some(c) => k = c + 1,
            None => return false,
        }
    }
    true
}

/// If a lock acquisition starts at token `j`, returns the index of its
/// closing paren.
///
/// Recognized: `.lock()` / `.read()` / `.write()` with *empty* argument
/// lists (distinguishing `snapshot.read()` from `mem.read(block)`), and
/// calls to `lock`-named helper functions that return a guard
/// (`lock(&self.core)`, `lock_mode(&self.mode)`).
fn acquisition_at(toks: &[Tok], j: usize, hi: usize) -> Option<usize> {
    let t = toks.get(j)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let dotted = j > 0 && toks[j - 1].is_punct(".");
    if dotted && matches!(t.text.as_str(), "lock" | "read" | "write") {
        let open = toks.get(j + 1)?;
        let close = toks.get(j + 2)?;
        if open.is_punct("(") && close.is_punct(")") && j + 2 < hi {
            return Some(j + 2);
        }
        return None;
    }
    if !dotted
        && (t.text == "lock" || t.text.starts_with("lock_"))
        && matches!(toks.get(j + 1), Some(n) if n.is_punct("("))
    {
        let close = model::matching_fwd(toks, j + 1, "(", ")")?;
        if close < hi {
            return Some(close);
        }
    }
    None
}

/// Collects the guard bindings of one function body.
fn guards(toks: &[Tok], f: &FnModel) -> Vec<Guard> {
    let Some((b0, b1)) = f.body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut i = b0 + 1;
    while i < b1 {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        // Only plain `let [mut] name = …;` bindings can hold a guard we
        // track; pattern bindings of guards do not occur on these paths.
        let mut j = i + 1;
        if matches!(toks.get(j), Some(t) if t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind != TokKind::Ident || !matches!(toks.get(j + 1), Some(t) if t.is_punct("="))
        {
            i += 1;
            continue;
        }
        let eq = j + 1;
        let mut depth = 0i32;
        let mut end = b1;
        for (k, t) in toks.iter().enumerate().take(b1).skip(eq + 1) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => {
                        end = k;
                        break;
                    }
                    _ => {}
                }
            }
        }
        if acquisition(toks, eq + 1, end) {
            let scope_end = model::enclosing_block_end(toks, i, b0);
            let mut live_to = scope_end.min(b1);
            // An explicit `drop(name)` ends the live range early.
            let mut k = end + 1;
            while k + 3 <= live_to {
                if toks[k].is_ident("drop")
                    && toks[k + 1].is_punct("(")
                    && toks[k + 2].is_ident(&name_tok.text)
                    && matches!(toks.get(k + 3), Some(t) if t.is_punct(")"))
                {
                    live_to = k;
                    break;
                }
                k += 1;
            }
            out.push(Guard {
                name: name_tok.text.clone(),
                live_from: end + 1,
                live_to,
                line: toks[i].line,
            });
        }
        i = end + 1;
    }
    out
}

/// R6 — concurrency discipline on the service layer.
pub fn check_r6(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let mut hits: BTreeSet<(u32, String)> = BTreeSet::new();

    for f in model::functions(toks) {
        let Some((b0, _)) = f.body else { continue };
        if !ctx.included.get(b0).copied().unwrap_or(false) {
            continue;
        }
        for g in guards(toks, &f) {
            for i in g.live_from..g.live_to {
                let t = &toks[i];
                if t.kind == TokKind::Ident {
                    // Thread/submit boundaries.
                    let boundary = match t.text.as_str() {
                        "spawn" => Some("spawn"),
                        "scope" if i > 0 && toks[i - 1].is_punct("::") => Some("thread::scope"),
                        s if s.starts_with("submit") && i > 0 && toks[i - 1].is_punct(".") => {
                            Some("submit")
                        }
                        _ => None,
                    };
                    if let Some(b) = boundary {
                        hits.insert((
                            t.line,
                            format!(
                                "lock guard `{}` (line {}) held across `{}` boundary (drop or narrow the guard first)",
                                g.name, g.line, b
                            ),
                        ));
                        continue;
                    }
                    // `move` closure capturing the guard.
                    if t.text == "move"
                        && matches!(toks.get(i + 1), Some(n) if n.is_punct("|") || n.is_punct("||"))
                    {
                        if let Some(body) = closure_body(toks, i + 1, g.live_to) {
                            if toks[body.0..body.1].iter().any(|c| c.is_ident(&g.name)) {
                                hits.insert((
                                    t.line,
                                    format!(
                                        "lock guard `{}` (line {}) captured by `move` closure (clone the data out instead)",
                                        g.name, g.line
                                    ),
                                ));
                            }
                        }
                        continue;
                    }
                }
                // Nested acquisition while this guard is live.
                if acquisition_at(toks, i, g.live_to).is_some() && i > g.live_from {
                    hits.insert((
                        toks[i].line,
                        format!(
                            "nested lock acquisition while guard `{}` (line {}) is live (lock-order hazard — narrow the first guard)",
                            g.name, g.line
                        ),
                    ));
                }
            }
        }
    }

    for (line, msg) in hits {
        out.push(ctx.finding(Rule::R6, line, msg));
    }
}

/// The body token range of the closure whose parameter list opens with the
/// `|` at `bar` (exclusive of any braces): `(start, end)`.
fn closure_body(toks: &[Tok], bar: usize, hi: usize) -> Option<(usize, usize)> {
    let start = if toks.get(bar).is_some_and(|t| t.is_punct("||")) {
        bar + 1
    } else {
        let mut j = bar + 1;
        while j < hi && !toks[j].is_punct("|") {
            j += 1;
        }
        if j >= hi {
            return None;
        }
        j + 1
    };
    if matches!(toks.get(start), Some(t) if t.is_punct("{")) {
        let close = model::matching_fwd(toks, start, "{", "}")?;
        return Some((start + 1, close.min(hi)));
    }
    // Expression-bodied closure: to the first `,` / `;` / `)` at depth 0.
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(hi).skip(start) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return Some((start, k)),
            ")" | "]" | "}" => depth -= 1,
            "," | ";" if depth == 0 => return Some((start, k)),
            _ => {}
        }
    }
    Some((start, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit_source;

    fn rule(rel: &str, crate_name: &str, src: &str, r: Rule) -> Vec<Finding> {
        let (findings, _) = audit_source(rel, crate_name, false, src);
        findings.into_iter().filter(|f| f.rule == r).collect()
    }

    #[test]
    fn r6_guard_across_spawn_is_flagged() {
        let src = "fn f(s: &S) {\n    let guard = s.state.lock().unwrap_or_else(x);\n    std::thread::spawn(|| work());\n    drop(guard);\n}\n";
        let f = rule("crates/secmem/src/worker.rs", "secmem", src, Rule::R6);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("held across `spawn`"));
    }

    #[test]
    fn r6_guard_dropped_before_spawn_is_clean() {
        let src = "fn f(s: &S) {\n    let guard = s.state.lock().unwrap_or_else(x);\n    drop(guard);\n    std::thread::spawn(|| work());\n}\n";
        assert!(rule("crates/secmem/src/worker.rs", "secmem", src, Rule::R6).is_empty());
    }

    #[test]
    fn r6_nested_acquisition_is_flagged() {
        let src = "fn f(s: &S) {\n    let a = s.left.lock().unwrap_or_else(x);\n    let b = s.right.lock().unwrap_or_else(x);\n    use_both(&a, &b);\n}\n";
        let f = rule("crates/secmem/src/worker.rs", "secmem", src, Rule::R6);
        assert!(
            f.iter()
                .any(|x| x.message.contains("nested lock acquisition")),
            "{f:?}"
        );
    }

    #[test]
    fn r6_value_extracted_from_temporary_guard_is_clean() {
        let src = "fn f(s: &S) -> u64 {\n    let v = s.state.lock().unwrap_or_else(x).value;\n    std::thread::spawn(|| work());\n    v\n}\n";
        assert!(rule("crates/secmem/src/worker.rs", "secmem", src, Rule::R6).is_empty());
    }

    #[test]
    fn r7_bans_wall_clock_and_hash_maps_outside_policy() {
        let src = "use std::time::Instant;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let f = rule("crates/core/src/x.rs", "core", src, Rule::R7);
        assert_eq!(f.len(), 2, "one per (line, construct): {f:?}");
        // Policy: the profiler file is the sanctioned boundary.
        assert!(rule(
            "crates/telemetry/src/profile.rs",
            "telemetry",
            "use std::time::Instant;\n",
            Rule::R7
        )
        .is_empty());
    }
}
