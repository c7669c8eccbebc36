//! Process and host readings from `/proc` (Linux).

use std::time::Duration;

/// `struct timespec` of the C library (64-bit Linux layout).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of this process, all threads included (threads that already
/// exited too), with nanosecond resolution. The `/proc` tick counters
/// advance in 10 ms steps, too coarse for a pool pass of small requests.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; the call only writes
    // through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS, so a
/// later [`peak_rss_mb`] covers only what ran in between. Returns false
/// when the kernel refused; the peak then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Host-wide CPU tick totals from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    /// Ticks in every state.
    pub total: u64,
    /// Ticks stolen by the hypervisor for other guests.
    pub steal: u64,
}

/// Reads the host tick totals.
pub fn host_ticks() -> HostTicks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return HostTicks::default();
    };
    let v: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    HostTicks {
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user).
        total: v.iter().take(8).sum(),
        steal: v.get(7).copied().unwrap_or(0),
    }
}

/// Steal time between two readings as a percentage of all host ticks.
pub fn steal_percent(before: HostTicks, after: HostTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}
