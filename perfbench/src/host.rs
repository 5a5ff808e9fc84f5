//! What the host looked like during a run, and what a process used.
//! Linux `/proc` only; a field that cannot be read is reported empty.

use serde::{Deserialize, Serialize};
use std::fs;
use std::time::Instant;

/// The host record written with every result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/loadavg` when the run started.
    pub load_before: String,
    /// `/proc/loadavg` when the run ended.
    pub load_after: String,
    /// [`calibration_ms`] when the run started.
    pub calibration_ms_before: f64,
    /// [`calibration_ms`] when the run ended.
    pub calibration_ms_after: f64,
    /// Worker threads the workload used.
    pub threads: usize,
    /// The workload seed.
    pub seed: u64,
}

/// `/proc/loadavg`, trimmed.
#[must_use]
pub fn load_average() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|text| text.trim().to_owned())
        .unwrap_or_default()
}

/// Milliseconds a fixed serial integer loop takes on this host: the median
/// of five runs of 2^24 xorshift steps. On a shared host this moves with
/// the load other tenants put on the cores; it is recorded beside each
/// result so that a slow phase of the host is visible. No metric is scaled
/// by it.
#[must_use]
pub fn calibration_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x: u64 = std::hint::black_box(0x9e37_79b9_7f4a_7c15);
            for _ in 0..1u32 << 24 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// The CPU model name.
#[must_use]
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_default()
}

/// This process's resident-set high-water mark (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU seconds this process has used, all threads
/// included (`/proc/self/stat` fields 14 and 15, in the kernel's 100 Hz
/// `USER_HZ` ticks).
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields after it start
    // past its closing parenthesis, with the state as field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| {
        fields
            .get(index)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}
