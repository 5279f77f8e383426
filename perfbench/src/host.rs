//! Host and build provenance, and process memory readings.

/// `rustc -V` of the compiler that built this binary.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// Cargo profile this binary was built with.
pub const PROFILE: &str = env!("PERFBENCH_PROFILE");

/// Threads the host offers this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    status_kib("VmHWM:").map(|k| k * 1024)
}

/// Current resident set size of this process, in bytes (`VmRSS`).
pub fn rss_bytes() -> Option<u64> {
    status_kib("VmRSS:").map(|k| k * 1024)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Directory the traced run writes its span records and ledger into.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
