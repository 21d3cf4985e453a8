//! What the host was doing: CPU steal over the measured window, a fixed
//! reference loop that runs outside the program, and peak memory.

use std::hint::black_box;
use std::time::Instant;

use crate::common::median;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let head = fields.get(..8)?;
    Some(CpuTimes {
        steal: head[7],
        total: head.iter().sum(),
    })
}

/// Share of all CPU time the hypervisor stole between `a` and `b` (0 when
/// `/proc/stat` is unavailable).
pub fn steal_share(a: Option<CpuTimes>, b: Option<CpuTimes>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

/// Process `VmHWM` (peak resident set) in MB, 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds one fixed single-threaded arithmetic loop takes, median
/// of five: the host's speed at that moment, measured with none of the
/// program's code.
pub fn ref_ms() -> f64 {
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        let mut acc = black_box(0.0f64);
        for _ in 0..2_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += (x >> 11) as f64 * 1e-16;
        }
        black_box((x, acc));
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}
