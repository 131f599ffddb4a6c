//! Host facts printed with every run, and process resource readers.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which
/// the kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Time of a fixed single-threaded integer loop. On an idle host it
/// repeats closely; a run whose calibration reads slow ran on a host that
/// was busy or throttled.
pub fn calibration() -> Duration {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(black_box(i));
    }
    black_box(x);
    started.elapsed()
}

/// The host stamp line: cores, build profile, sanitizer feature, and the
/// calibration loop's time.
pub fn stamp() -> String {
    format!(
        "host: nproc={} profile={} sanitize={} calibration_ms={:.1}",
        nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        sand::sanitizer::enabled(),
        calibration().as_secs_f64() * 1e3
    )
}

/// User plus system CPU time of this process so far, all threads.
pub fn process_cpu() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "missing cpu field in /proc/self/stat".to_string())
    };
    Ok(Duration::from_secs_f64((tick(11)? + tick(12)?) / USER_HZ))
}

/// The process's resident-set high-water mark, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
