//! What the harness records about the machine it ran on.

use crate::json;
use std::path::Path;
use std::process::Command;

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds this thread has spent on a CPU (first field of `schedstat`).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns * 1e-9)
}

fn first_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).lines().next()?.trim().to_string())
}

/// The `host` block written into every result file. The commit is
/// `unknown` when the harness runs from an exported tree.
pub fn host_json(package_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || "unknown".to_string();
    json::Obj::new()
        .int("nproc", nproc as u64)
        .int("threads", 1)
        .str("rustc", &first_line("rustc", &["--version"], package_dir).unwrap_or_else(unknown))
        .str("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .str(
            "commit",
            &first_line("git", &["rev-parse", "HEAD"], package_dir).unwrap_or_else(unknown),
        )
        .finish()
}
