//! The recorded host: cores, CPU model, compiler, revision, profile, and
//! the Linux `/proc` reader behind `peak_rss_mb`.

use crate::json::{obj, s, Value};
use std::process::Command;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Peak resident set size (`VmHWM`) of this process in KiB; `None` where
/// `/proc` does not provide it, so reports print `unmeasured`, never 0.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host block every report carries.
pub fn describe() -> Value {
    obj([
        ("nproc", Value::Int(nproc() as u64)),
        ("cpu_model", s(cpu_model())),
        ("rustc", s(first_line_of("rustc", &["-V"]))),
        // A driver checkout is not a git repository: "unknown" there.
        ("git_rev", s(first_line_of("git", &["rev-parse", "HEAD"]))),
        (
            "build_profile",
            s(if cfg!(debug_assertions) {
                "debug (timings are not comparable)"
            } else {
                "release, lto=thin, codegen-units=1"
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbenchmark\nVmPeak:\t  200 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(12345));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(nproc() >= 1);
    }
}
