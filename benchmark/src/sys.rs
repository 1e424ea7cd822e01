//! Process-level measurements: CPU time, peak memory, machine fingerprint.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User + system CPU time consumed by every thread of this process so far
/// (exited threads included), in nanoseconds. `/proc/self/stat` offers the
/// same sum but only in 10 ms ticks, too coarse for a 5 ms request.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, the only target this benchmark supports) and the
    // clock id is a constant the kernel defines; the call writes only `ts`.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Threads the scheduler may run at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // keeps `git` from searching for a repository above the checkout
    let ceiling = std::env::current_dir().ok()?.parent()?.to_path_buf();
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// `nproc`, CPU model, rustc and git revision, for the run's header.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
        ),
        (
            "git",
            command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "none".to_owned()),
        ),
    ]
}
