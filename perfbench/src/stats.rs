//! Order statistics, process counters read from `/proc`, and the host
//! fingerprint every record carries.

use std::process::Command;

use serde_json::{json, Value};

/// The `p`-quantile (`0.0..=1.0`) of `values`, linearly interpolated
/// between order statistics. `NaN` when `values` is empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A field of `/proc/self/<file>` of the form `Key: value`.
fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/{file}")).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("status", "VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Bytes this process has passed to `write`-family syscalls (`wchar`),
/// sockets and files alike.
pub fn wchar() -> u64 {
    proc_field("io", "wchar").unwrap_or(0)
}

/// Where the numbers came from: CPU model, vCPUs, toolchain, source
/// revision and build profile.
pub fn host_fingerprint() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let vcpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({
        "cpu_model": cpu_model,
        "vcpus": vcpus,
        "rustc": command_line("rustc", &["--version"]),
        "git_rev": command_line("git", &["rev-parse", "HEAD"]),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
    })
}

/// The first line `program args` prints, or `"unavailable"` (no such
/// program, or not a git checkout).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
