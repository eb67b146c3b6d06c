//! Host facts and resource counters read from `/proc` (Linux), with
//! neutral fallbacks elsewhere.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for `/proc/*/stat` CPU times. Linux
/// exports these in `USER_HZ`, which is 100 on every mainstream build.
const TICKS_PER_S: u64 = 100;

/// CPU nanoseconds (user + system) from a `/proc/.../stat` file.
fn stat_cpu_ns(path: &Path) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis start at field 3 (state).
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / TICKS_PER_S))
}

/// CPU time of the whole process, including threads that have exited.
pub fn process_cpu_ns() -> u64 {
    stat_cpu_ns(Path::new("/proc/self/stat")).unwrap_or(0)
}

/// CPU time of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    stat_cpu_ns(Path::new("/proc/thread-self/stat")).unwrap_or(0)
}

/// Summed CPU time of this process's live threads named `name` (the
/// kernel keeps the first 15 bytes of a thread name).
pub fn named_threads_cpu_ns(name: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            fs::read_to_string(t.path().join("comm")).is_ok_and(|comm| comm.trim_end() == name)
        })
        .filter_map(|t| stat_cpu_ns(&t.path().join("stat")))
        .sum()
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Free cores: logical CPUs minus the 1-minute load average, floored,
/// at least 1 — the same rule `bench_core` records.
pub fn free_cores(cpus: usize) -> usize {
    let load1 = fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    (cpus as f64 - load1).floor().max(1.0) as usize
}

/// The commit the benchmark was built from: `CFM_BENCH_COMMIT` if set,
/// else `HEAD` resolved from a `.git` directory in the working
/// directory, else `"unknown"` (a source export has no history).
pub fn commit() -> String {
    if let Ok(c) = std::env::var("CFM_BENCH_COMMIT") {
        return c;
    }
    let resolve = || -> Option<String> {
        let head = fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = fs::read_to_string(Path::new(".git").join(reference)) {
            return Some(id.trim().to_string());
        }
        let packed = fs::read_to_string(".git/packed-refs").ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

/// `"release"` or `"debug"`, as compiled.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
