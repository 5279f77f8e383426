//! Golden test: pin the complete stdout of `figures tiny` — Table I, every
//! figure series and the serving scenarios — byte for byte.
//!
//! The fixture `tests/golden/figures_tiny.txt` is the equivalence proof for
//! refactors of the simulator: any change to a configuration value, the
//! timing model, the metadata engine or the table formatting shows up as a
//! diff. Regenerate it only when such a change is intentional:
//!
//! ```text
//! cargo run --release -p rmcc-bench --bin figures tiny > tests/golden/figures_tiny.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("../../../tests/golden/figures_tiny.txt");

#[test]
fn figures_tiny_matches_golden_stdout() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("tiny")
        .output()
        .expect("figures binary runs");
    assert!(
        out.status.success(),
        "figures tiny exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("figures prints UTF-8");
    if let Some((i, (got, want))) = stdout
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "figures tiny drifted from tests/golden/figures_tiny.txt at line {}:\n  \
             got:  {got}\n  want: {want}",
            i + 1
        );
    }
    assert_eq!(
        stdout, GOLDEN,
        "figures tiny drifted from tests/golden/figures_tiny.txt (length differs)"
    );
}
