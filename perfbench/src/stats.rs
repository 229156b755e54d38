//! Sample summaries, process memory, and run provenance.

use std::process::Command;

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of `xs` that still has at least ten samples
/// above it, as `(quantile, value)`; `None` below twenty samples, where
/// no percentile past the median qualifies.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = n - 11;
    Some(((i + 1) as f64 / n as f64, v[i]))
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// CPU seconds this process has run: every thread, ended ones included.
/// On a virtual machine the kernel leaves out time the hypervisor stole
/// from the guest, which wall-clock time cannot.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `t` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and the clock id is Linux's
    // CLOCK_PROCESS_CPUTIME_ID, which every kernel since 2.6.12 supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock through 64-bit Linux clock_gettime");

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The checkout's git revision, or `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_clock_counts_work() {
        let before = process_cpu_s();
        std::hint::black_box((0..5_000_000u64).map(|x| x ^ (x >> 3)).sum::<u64>());
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 19]), None);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (q, v) = tail(&xs).unwrap();
        assert_eq!(v, 89.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((q - 0.9).abs() < 1e-12);
    }
}
