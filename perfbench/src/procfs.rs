//! Process counters read from `/proc/self` (Linux): CPU time, peak resident
//! memory and the live thread count.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU-seconds this process has used so far, across all of
/// its threads, finished ones included.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; the fields after it are plain.
    let after_name = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime) of proc(5), counted from the state
    // field (3), which starts `after_name`.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// One `kB`-valued or count-valued field of `/proc/self/status`.
fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Lowers the peak resident set size to the current one, so that a later
/// [`peak_rss_mb`] covers only what runs after this call (Linux 4.0+).
/// Free heap pages are handed back to the system first, so the new floor is
/// the memory in use rather than what earlier work happened to leave mapped.
pub fn reset_peak_rss() -> Result<(), String> {
    release_free_heap();
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

#[cfg(target_env = "gnu")]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only returns unused
    // heap pages to the system; it is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(target_env = "gnu"))]
fn release_free_heap() {}

/// Threads currently alive in this process.
pub fn thread_count() -> Option<u64> {
    status_field("Threads")
}

/// Logical CPUs this process may run on, as the library's thread pools size
/// themselves.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
