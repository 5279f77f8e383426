//! `rmcc-audit` — an offline static-analysis pass for the RMCC workspace.
//!
//! The fault-injection campaign (PR 2) *samples* the trusted path's
//! fail-safe behaviour; this crate *enforces* the invariants that make
//! those paths safe, statically and on every file:
//!
//! * **R1 panic-freedom** — no `unwrap()`, `expect()`, `panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!`, or bare slice indexing in
//!   the trusted crates (`crypto`, `secmem`, `core`) outside `#[cfg(test)]`.
//!   A panic inside the memory controller model is an availability fault.
//! * **R2 counter-arithmetic safety** — no truncating `as` casts and no
//!   unchecked `+`/`<<` on counter/epoch/budget-named identifiers; use
//!   `checked_*`/`wrapping_*`/`saturating_*` or waive with a rationale.
//! * **R3 secret-flow hygiene** — in `crates/crypto`, no branch or index
//!   expression that mentions key/pad/otp/plaintext/secret-named bindings
//!   (MemJam-class leak surface), and no `Debug`/format capture of them
//!   (log-leak guard).
//! * **R4 workspace hygiene** — every crate root pins
//!   `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`.
//!
//! Findings print as `file:line: rule: message`. Intentional exceptions
//! are silenced by counted, reasoned `// audit:allow(...)` directives (see
//! [`directives`]); the summary reports every waiver so escape hatches
//! stay visible.
//!
//! The crate is deliberately dependency-free (std only): it must build in
//! the same offline environment as the rest of the workspace, and must not
//! be able to skew the code it audits through shared dependencies.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod directives;
pub mod flow;
pub mod json;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod taint;

use std::fmt;
use std::path::{Path, PathBuf};

use directives::Directive;

/// Crates whose `src/` trees are held to R1/R2 (and R3 for `crypto`).
pub const TRUSTED_CRATES: &[&str] = &["crypto", "secmem", "core"];

/// An audit rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Panic-freedom on the trusted path.
    R1,
    /// Counter-arithmetic safety.
    R2,
    /// Secret-flow hygiene in the crypto crate.
    R3,
    /// Workspace lint hygiene on crate roots.
    R4,
    /// Secret-taint leakage: dataflow from secret sources into indices,
    /// lookups, branches, or leaky callees (crypto + secmem).
    R5,
    /// Concurrency discipline: guards across thread boundaries and nested
    /// acquisition (service layer).
    R6,
    /// Determinism contract: no wall clock, sleeps, or hasher-randomized
    /// containers in the deterministic crates.
    R7,
    /// Audit meta-findings: malformed or unused `audit:allow` directives.
    W0,
}

/// Every reportable rule, in order (used by the per-rule summary).
pub const ALL_RULES: &[Rule] = &[
    Rule::R1,
    Rule::R2,
    Rule::R3,
    Rule::R4,
    Rule::R5,
    Rule::R6,
    Rule::R7,
    Rule::W0,
];

impl Rule {
    /// Parses `R1`..`R7` (the rules a directive may name).
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            "R7" => Some(Rule::R7),
            _ => None,
        }
    }

    /// Whether a finding for this rule fails the build outright (error) or
    /// only under `--deny-warnings` (warning). R2 is a warning because
    /// counter-like naming is heuristic; the others are unambiguous once
    /// waivers are applied.
    pub fn severity(self) -> Severity {
        match self {
            Rule::R1 | Rule::R3 | Rule::R4 | Rule::R5 | Rule::R6 | Rule::R7 => Severity::Error,
            Rule::R2 | Rule::W0 => Severity::Warning,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::W0 => "W0",
        };
        f.write_str(s)
    }
}

/// Finding severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Always fails the audit.
    Error,
    /// Fails only under `--deny-warnings`.
    Warning,
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the audit root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Per-file context handed to the rule checkers.
pub struct FileCtx<'a> {
    /// Root-relative path, `/`-separated.
    pub rel: &'a str,
    /// The file's code tokens.
    pub tokens: &'a [lexer::Tok],
    /// `included[i]` is false for tokens inside `#[cfg(test)]` regions.
    pub included: &'a [bool],
    /// Owning crate's name (directory name under `crates/`).
    pub crate_name: &'a str,
    /// Whether this file is a crate root (`src/lib.rs` / `src/main.rs`).
    pub is_crate_root: bool,
}

impl FileCtx<'_> {
    /// Builds a finding against this file.
    pub fn finding(&self, rule: Rule, line: u32, message: String) -> Finding {
        Finding {
            file: self.rel.to_string(),
            line,
            rule,
            message,
        }
    }
}

/// Which rule families apply to a file, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// R1/R2 apply (trusted crate).
    pub trusted: bool,
    /// R3 applies (crypto crate).
    pub secret_flow: bool,
    /// R4 applies (crate root).
    pub hygiene: bool,
    /// R5 applies (crypto + secmem: dataflow leakage).
    pub leakage: bool,
    /// R6 applies (service-layer crates: lock discipline).
    pub concurrency: bool,
    /// R7 applies (deterministic crates: no wall clock / hash iteration).
    pub determinism: bool,
}

/// Audits a single file's source text.
///
/// Returns the unwaived findings (waivers already applied) together with
/// the file's directives and their suppression counts. Unused directives
/// are reported as `W0` findings.
pub fn audit_source(
    rel: &str,
    crate_name: &str,
    is_crate_root: bool,
    src: &str,
) -> (Vec<Finding>, Vec<Directive>) {
    let rules = classify(rel, crate_name, is_crate_root);
    let scan = lexer::scan(src);
    let included = rules::test_mask(&scan.tokens);
    let ctx = FileCtx {
        rel,
        tokens: &scan.tokens,
        included: &included,
        crate_name,
        is_crate_root,
    };

    let mut findings = Vec::new();
    if rules.trusted {
        rules::check_r1(&ctx, &mut findings);
        rules::check_r2(&ctx, &mut findings);
    }
    if rules.secret_flow {
        rules::check_r3(&ctx, &mut findings);
    }
    if rules.hygiene {
        rules::check_r4(&ctx, &mut findings);
    }
    if rules.leakage {
        taint::check_r5(&ctx, &mut findings);
    }
    if rules.concurrency {
        flow::check_r6(&ctx, &mut findings);
    }
    if rules.determinism {
        flow::check_r7(&ctx, &mut findings);
    }

    let (mut dirs, malformed) = directives::parse(rel, &scan.comments, &scan.tokens);
    let mut kept = directives::apply(&mut dirs, findings);
    kept.extend(malformed);
    for d in &dirs {
        if d.suppressed == 0 {
            kept.push(Finding {
                file: rel.to_string(),
                line: d.line,
                rule: Rule::W0,
                message: format!(
                    "unused audit:allow({}) directive (nothing to waive — remove it)",
                    rule_list(&d.rules)
                ),
            });
        }
    }
    (kept, dirs)
}

/// Decides which rule families apply to `rel`.
fn classify(rel: &str, crate_name: &str, is_crate_root: bool) -> RuleSet {
    let compat = rel.starts_with("crates/compat/");
    RuleSet {
        trusted: !compat && TRUSTED_CRATES.contains(&crate_name),
        secret_flow: !compat && crate_name == "crypto",
        hygiene: is_crate_root,
        leakage: !compat && (crate_name == "crypto" || crate_name == "secmem"),
        concurrency: !compat && flow::R6_CRATES.contains(&crate_name),
        determinism: !compat && flow::R7_CRATES.contains(&crate_name),
    }
}

fn rule_list(rules: &[Rule]) -> String {
    let names: Vec<String> = rules.iter().map(|r| r.to_string()).collect();
    names.join(", ")
}

/// A waiver as reported in the summary.
#[derive(Debug, Clone)]
pub struct WaiverEntry {
    /// File the directive lives in.
    pub file: String,
    /// Directive line.
    pub line: u32,
    /// Rules waived.
    pub rules: Vec<Rule>,
    /// Declared scope.
    pub scope: directives::Scope,
    /// Rationale.
    pub reason: String,
    /// Findings suppressed.
    pub suppressed: usize,
}

/// The result of auditing a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Unwaived findings, sorted by file, line, rule.
    pub findings: Vec<Finding>,
    /// Every directive encountered, with suppression counts.
    pub waivers: Vec<WaiverEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.rule.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.rule.severity() == Severity::Warning)
            .count()
    }

    /// Total findings suppressed by directives.
    pub fn suppressed(&self) -> usize {
        self.waivers.iter().map(|w| w.suppressed).sum()
    }

    /// Process exit code: 0 clean, 1 findings (errors, or warnings under
    /// `--deny-warnings`).
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        if self.errors() > 0 || (deny_warnings && self.warnings() > 0) {
            1
        } else {
            0
        }
    }

    /// Per-rule `(findings, waived)` counts, in [`ALL_RULES`] order.
    pub fn per_rule(&self) -> Vec<(Rule, usize, usize)> {
        ALL_RULES
            .iter()
            .map(|&r| {
                let found = self.findings.iter().filter(|f| f.rule == r).count();
                let waived = self
                    .waivers
                    .iter()
                    .filter(|w| w.rules.contains(&r))
                    .map(|w| w.suppressed)
                    .sum();
                (r, found, waived)
            })
            .collect()
    }

    /// Renders findings plus the per-rule table and waiver summary, as
    /// printed by the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "audit: scanned {} files: {} error(s), {} warning(s), {} finding(s) waived by {} directive(s)\n",
            self.files_scanned,
            self.errors(),
            self.warnings(),
            self.suppressed(),
            self.waivers.len(),
        ));
        let active: Vec<(Rule, usize, usize)> = self
            .per_rule()
            .into_iter()
            .filter(|(_, found, waived)| found + waived > 0)
            .collect();
        if !active.is_empty() {
            out.push_str("audit: per-rule summary:\n");
            for (rule, found, waived) in active {
                out.push_str(&format!("  {rule}  findings={found}  waived={waived}\n"));
            }
        }
        if !self.waivers.is_empty() {
            out.push_str("audit: waivers:\n");
            for w in &self.waivers {
                out.push_str(&format!(
                    "  {}:{}: allow({}) scope={} suppressed {} finding(s) — \"{}\"\n",
                    w.file,
                    w.line,
                    rule_list(&w.rules),
                    w.scope.as_str(),
                    w.suppressed,
                    w.reason,
                ));
            }
        }
        out
    }

    /// Renders the report as deterministic, machine-readable JSON — the
    /// same structure the committed baseline file stores.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 2,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"file\": ");
            json::write_str(&mut s, &f.file);
            s.push_str(&format!(
                ", \"line\": {}, \"rule\": \"{}\", \"severity\": \"{}\", \"message\": ",
                f.line,
                f.rule,
                match f.rule.severity() {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                }
            ));
            json::write_str(&mut s, &f.message);
            s.push('}');
        }
        s.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"file\": ");
            json::write_str(&mut s, &w.file);
            s.push_str(&format!(", \"line\": {}, \"rules\": [", w.line));
            for (j, r) in w.rules.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{r}\""));
            }
            s.push_str(&format!(
                "], \"scope\": \"{}\", \"suppressed\": {}, \"reason\": ",
                w.scope.as_str(),
                w.suppressed
            ));
            json::write_str(&mut s, &w.reason);
            s.push('}');
        }
        s.push_str(if self.waivers.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"summary\": {");
        s.push_str(&format!(
            "\"errors\": {}, \"warnings\": {}, \"waived\": {}, \"by_rule\": {{",
            self.errors(),
            self.warnings(),
            self.suppressed()
        ));
        for (i, (rule, found, waived)) in self.per_rule().into_iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{rule}\": {{\"findings\": {found}, \"waived\": {waived}}}"
            ));
        }
        s.push_str("}}\n}\n");
        s
    }

    /// Diffs this report against a committed baseline (a JSON document
    /// produced by [`Report::to_json`]). Returns the findings present now
    /// but absent from the baseline — the regressions a CI gate fails on.
    ///
    /// Matching is by `(file, rule, message)` and deliberately ignores line
    /// numbers, so unrelated edits shifting a known finding do not trip the
    /// gate; a new instance of the same message in the same file *does*
    /// count when the baseline's count is exceeded.
    pub fn baseline_regressions(&self, baseline_json: &str) -> Result<Vec<Finding>, String> {
        let doc =
            json::parse(baseline_json).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let base = doc
            .get("findings")
            .and_then(json::Value::as_arr)
            .ok_or("baseline has no `findings` array")?;
        let mut budget: std::collections::BTreeMap<(String, String, String), usize> =
            std::collections::BTreeMap::new();
        for f in base {
            let key = (
                f.get("file")
                    .and_then(json::Value::as_str)
                    .ok_or("baseline finding missing `file`")?
                    .to_string(),
                f.get("rule")
                    .and_then(json::Value::as_str)
                    .ok_or("baseline finding missing `rule`")?
                    .to_string(),
                f.get("message")
                    .and_then(json::Value::as_str)
                    .ok_or("baseline finding missing `message`")?
                    .to_string(),
            );
            *budget.entry(key).or_insert(0) += 1;
        }
        let mut new = Vec::new();
        for f in &self.findings {
            let key = (f.file.clone(), f.rule.to_string(), f.message.clone());
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => *n -= 1,
                _ => new.push(f.clone()),
            }
        }
        Ok(new)
    }
}

/// Audits every in-scope `.rs` file under `root`.
///
/// In scope: `src/` trees of workspace crates (`crates/<name>/src/**`) and
/// the facade crate's own `src/`. The vendored compat shims
/// (`crates/compat/*`) are outside the trust boundary and only checked for
/// R4 on their crate roots. `target/`, hidden directories, and `tests/`
/// trees are skipped.
pub fn audit_tree(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();

    let mut report = Report::default();
    for path in files {
        let rel_path = path.strip_prefix(root).unwrap_or(&path);
        let rel = components_to_slash(rel_path);
        let Some((crate_name, is_crate_root)) = classify_path(&rel) else {
            continue;
        };
        let src = std::fs::read_to_string(&path)?;
        report.files_scanned += 1;
        let (findings, dirs) = audit_source(&rel, &crate_name, is_crate_root, &src);
        report.findings.extend(findings);
        report.waivers.extend(dirs.into_iter().map(|d| WaiverEntry {
            file: rel.clone(),
            line: d.line,
            rules: d.rules,
            scope: d.scope,
            reason: d.reason,
            suppressed: d.suppressed,
        }));
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .waivers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Maps a root-relative path to `(crate_name, is_crate_root)`, or `None`
/// if the file is out of audit scope.
fn classify_path(rel: &str) -> Option<(String, bool)> {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, src_idx) = match parts.as_slice() {
        ["crates", "compat", name, "src", ..] => ((*name).to_string(), 3),
        ["crates", name, "src", ..] => ((*name).to_string(), 2),
        ["src", ..] => ("rmcc".to_string(), 0),
        _ => return None,
    };
    let file = parts.last()?;
    let is_crate_root = parts.len() == src_idx + 2 && (*file == "lib.rs" || *file == "main.rs");
    Some((crate_name, is_crate_root))
}

/// Recursively collects `.rs` files, skipping `target/`, `tests/`, and
/// hidden directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "tests" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Joins path components with `/` so reports are identical across
/// platforms.
fn components_to_slash(p: &Path) -> String {
    let parts: Vec<String> = p
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify_path("crates/crypto/src/aes.rs"),
            Some(("crypto".to_string(), false))
        );
        assert_eq!(
            classify_path("crates/crypto/src/lib.rs"),
            Some(("crypto".to_string(), true))
        );
        assert_eq!(
            classify_path("crates/compat/rand/src/lib.rs"),
            Some(("rand".to_string(), true))
        );
        assert_eq!(
            classify_path("src/lib.rs"),
            Some(("rmcc".to_string(), true))
        );
        assert_eq!(classify_path("README.md"), None);
        assert_eq!(classify_path("crates/crypto/benches/x.rs"), None);
    }

    #[test]
    fn compat_crates_are_hygiene_only() {
        let rs = classify("crates/compat/rand/src/lib.rs", "rand", true);
        assert!(!rs.trusted && !rs.secret_flow && rs.hygiene);
    }

    #[test]
    fn waived_findings_are_counted_not_reported() {
        let src = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n//! d\n/// d\n// audit:allow(R1, reason = \"demo\")\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let (findings, dirs) = audit_source("crates/secmem/src/lib.rs", "secmem", true, src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(dirs.len(), 1);
        assert_eq!(dirs[0].suppressed, 1);
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// audit:allow(R1, reason = \"nothing here\")\npub fn f() {}\n";
        let (findings, _) = audit_source("crates/secmem/src/x.rs", "secmem", false, src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::W0);
        assert!(findings[0].message.contains("unused audit:allow"));
    }
}
