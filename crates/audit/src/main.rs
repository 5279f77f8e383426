//! CLI for the RMCC static-invariant audit.
//!
//! ```text
//! cargo run -p rmcc-audit -- [--root PATH] [--deny-warnings]
//!                            [--format text|json] [--baseline PATH]
//! ```
//!
//! Exit codes are distinct and stable for CI:
//!
//! * `0` — clean: no unwaived findings (or, in baseline mode, every
//!   finding is accounted for by the committed baseline).
//! * `1` — findings: unwaived errors, warnings under `--deny-warnings`,
//!   or findings not present in the `--baseline` file.
//! * `2` — internal error: bad usage, unreadable tree, or an unparsable
//!   baseline. A broken gate must never look like a passing one.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

/// Output format selector.
enum Format {
    /// Human-readable findings + tables (default).
    Text,
    /// The machine-readable report consumed by the baseline gate.
    Json,
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny_warnings = false;
    let mut format = Format::Text;
    let mut baseline: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(p) = args.next() else {
                    eprintln!("rmcc-audit: --root requires a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(p);
            }
            "--deny-warnings" => deny_warnings = true,
            "--format" => {
                match args.next().as_deref() {
                    Some("text") => format = Format::Text,
                    Some("json") => format = Format::Json,
                    other => {
                        eprintln!("rmcc-audit: --format requires `text` or `json` (got {other:?})");
                        return ExitCode::from(2);
                    }
                };
            }
            "--baseline" => {
                let Some(p) = args.next() else {
                    eprintln!("rmcc-audit: --baseline requires a path");
                    return ExitCode::from(2);
                };
                baseline = Some(PathBuf::from(p));
            }
            "--help" | "-h" => {
                println!(
                    "usage: rmcc-audit [--root PATH] [--deny-warnings] [--format text|json] [--baseline PATH]"
                );
                println!();
                println!("Statically enforces the RMCC trusted-path invariants:");
                println!(
                    "  R1  panic-freedom in crypto/secmem/core (no unwrap/expect/panic!/indexing)"
                );
                println!("  R2  counter-arithmetic safety (no truncating casts or unchecked +/<<)");
                println!("  R3  secret-flow hygiene in crypto (no secret-dependent branches/indexes/logs)");
                println!(
                    "  R4  crate roots pin #![forbid(unsafe_code)] and #![deny(missing_docs)]"
                );
                println!("  R5  dataflow leakage in crypto/secmem (taint from secrets into indices/branches)");
                println!("  R6  lock discipline on the service layer (guards across spawn/submit, nested acquisition)");
                println!(
                    "  R7  determinism contract (no wall clock or hasher-randomized containers)"
                );
                println!();
                println!("Waive intentional findings with `// audit:allow(R1, reason = \"...\")`.");
                println!("`--baseline FILE` gates on regressions only: exit 1 if any finding is");
                println!("absent from the committed baseline (produced with `--format json`),");
                println!("0 when all findings are accounted for. Exit codes: 0 clean,");
                println!("1 findings/regressions, 2 internal error.");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("rmcc-audit: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let report = match rmcc_audit::audit_tree(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rmcc-audit: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    // Baseline gate: regressions are findings the committed baseline does
    // not account for. An unreadable or unparsable baseline is an internal
    // error (exit 2), not a pass.
    let mut regressions = Vec::new();
    if let Some(path) = &baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("rmcc-audit: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        match report.baseline_regressions(&text) {
            Ok(r) => regressions = r,
            Err(e) => {
                eprintln!("rmcc-audit: {e}");
                return ExitCode::from(2);
            }
        }
    }

    match format {
        Format::Text => print!("{}", report.render()),
        Format::Json => print!("{}", report.to_json()),
    }
    if baseline.is_some() {
        if regressions.is_empty() {
            eprintln!(
                "rmcc-audit: baseline gate: no new findings ({} current)",
                report.findings.len()
            );
        } else {
            eprintln!(
                "rmcc-audit: baseline gate: {} new unwaived finding(s):",
                regressions.len()
            );
            for f in &regressions {
                eprintln!("  {f}");
            }
        }
    }

    // In baseline mode the committed file *is* the accepted debt: the gate
    // passes whenever every current finding is accounted for, and fails
    // only on regressions. Without a baseline, findings themselves gate.
    if baseline.is_some() {
        return if regressions.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    match report.exit_code(deny_warnings) {
        0 => ExitCode::SUCCESS,
        code => ExitCode::from(code.clamp(0, 255) as u8),
    }
}
