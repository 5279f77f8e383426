//! DDR4 timing and geometry: the one channel of the RMCC paper's Table I.
//!
//! 128 GB DDR4 at 3.2 GT/s, tCL = tRCD = tRP = 13.75 ns, tRFC = 350 ns, one
//! channel, eight ranks, a 500 ns open-row timeout, and 256-entry
//! read/write queues. Every experiment uses this channel, so its values are
//! constants.

/// Simulation time unit: picoseconds. Integer picoseconds keep the model
/// deterministic and hashable while resolving the paper's 13.75 ns timings
/// exactly.
pub type Ps = u64;

/// Picoseconds per nanosecond.
pub const PS_PER_NS: Ps = 1_000;

/// Converts nanoseconds (possibly fractional) to picoseconds.
pub const fn ns(value: f64) -> Ps {
    (value * PS_PER_NS as f64).round() as Ps
}

/// Column access strobe latency (Table I: 13.75 ns).
pub const T_CL: Ps = ns(13.75);

/// Row-to-column delay (Table I: 13.75 ns).
pub const T_RCD: Ps = ns(13.75);

/// Row precharge time (Table I: 13.75 ns).
pub const T_RP: Ps = ns(13.75);

/// Refresh cycle time, during which the bank is unavailable (Table I:
/// 350 ns).
pub const T_RFC: Ps = ns(350.0);

/// Average refresh interval per rank.
pub const T_REFI: Ps = ns(7800.0);

/// Time to burst one 64 B line over the data bus
/// (8 transfers at 3.2 GT/s on an 8-byte bus = 2.5 ns).
pub const T_BURST: Ps = ns(2.5);

/// Open-row policy: a row left idle this long is considered precharged
/// in the background ("500ns timeout" row buffer policy, Table I).
pub const ROW_TIMEOUT: Ps = ns(500.0);

/// Number of ranks on the channel (Table I: 8).
pub const RANKS: usize = 8;

/// Banks per rank (DDR4: 4 bank groups × 4 banks).
pub const BANKS_PER_RANK: usize = 16;

/// Total banks across all ranks.
pub const TOTAL_BANKS: usize = RANKS * BANKS_PER_RANK;

/// Row size in bytes (8 KB typical for DDR4 x8 devices).
pub const ROW_BYTES: u64 = 8 << 10;

/// Combined read/write queue capacity (Table I: 256 entries).
pub const QUEUE_CAPACITY: usize = 256;

/// FR-FCFS-Capped: maximum consecutive row-buffer hits a bank may service
/// before the scheduler forces the row closed so older requests make
/// progress.
pub const ROW_HIT_CAP: u32 = 4;

/// Writes the "DDR4 channel" block of the Table I text.
pub fn write_table1(out: &mut impl std::fmt::Write) -> std::fmt::Result {
    writeln!(out, "DDR4 channel:")?;
    writeln!(
        out,
        "  tCL/tRCD/tRP = {:.2}/{:.2}/{:.2} ns",
        T_CL as f64 / 1e3,
        T_RCD as f64 / 1e3,
        T_RP as f64 / 1e3
    )?;
    writeln!(
        out,
        "  tRFC = {:.0} ns, tREFI = {:.0} ns",
        T_RFC as f64 / 1e3,
        T_REFI as f64 / 1e3
    )?;
    writeln!(out, "  ranks = {RANKS}, banks/rank = {BANKS_PER_RANK}")?;
    writeln!(
        out,
        "  row buffer = {ROW_BYTES} B, timeout = {:.0} ns",
        ROW_TIMEOUT as f64 / 1e3
    )?;
    write!(
        out,
        "  queue = {QUEUE_CAPACITY} entries, row-hit cap = {ROW_HIT_CAP}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion() {
        assert_eq!(ns(13.75), 13_750);
        assert_eq!(ns(0.0), 0);
        assert_eq!(ns(2.5), 2_500);
    }

    #[test]
    fn table1_matches_paper() {
        assert_eq!(T_CL, 13_750);
        assert_eq!(T_RFC, 350_000);
        assert_eq!(RANKS, 8);
        assert_eq!(QUEUE_CAPACITY, 256);
        assert_eq!(TOTAL_BANKS, 128);
    }

    #[test]
    fn table1_text_mentions_key_timings() {
        let mut s = String::new();
        write_table1(&mut s).unwrap();
        assert!(s.starts_with("DDR4 channel:\n"));
        assert!(s.contains("13.75"));
        assert!(s.contains("350"));
    }
}
