//! Process-level readings from `/proc`: CPU seconds and peak resident
//! memory of this process (all threads, including PE threads that have
//! already exited).

use std::fs;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// `utime + stime` of the process in seconds. Linux reports them in
/// clock ticks of 1/100 s on every supported configuration.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_ascii_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Seconds the hypervisor ran something else while a CPU of this guest
/// had work (`steal`, summed over all CPUs).
pub fn steal_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_ascii_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    ticks as f64 / 100.0
}

fn spin(rounds: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Cores' worth of CPU the host gives `threads` busy threads right now:
/// `threads` × (time of a fixed spin on one thread) / (time of the same
/// spin on all of them at once); about 10 ms.
pub fn host_cores(threads: usize) -> f64 {
    const ROUNDS: u64 = 2_000_000;
    let t = Instant::now();
    black_box(spin(black_box(ROUNDS)));
    let alone = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| black_box(spin(black_box(ROUNDS))));
        }
        black_box(spin(black_box(ROUNDS)));
    });
    threads as f64 * alone / t.elapsed().as_secs_f64()
}

/// [`host_cores`], read in a child process (`<this program> host-cores`).
/// The benchmark's premise is one physical core per PE, but this kind of
/// host at times runs both vCPUs on one core for minutes: every
/// two-thread program then takes up to twice as long, and no guest
/// counter (not even steal) shows it. A child, because a thread started
/// here claims an allocator arena and changes the memory the ops see
/// (peak RSS rose by a quarter). NaN when the child cannot be run.
pub fn probe_host_cores() -> f64 {
    std::env::current_exe()
        .and_then(|exe| Command::new(exe).arg("host-cores").output())
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// An op counts as calm when the host gave the PEs at least this share
/// of their cores both before and after it.
pub const CALM_SHARE: f64 = 0.8;

/// Which ops to take timings from: the calm ones, unless fewer than
/// `min` of them exist, in which case all.
pub fn calm_or_all<T>(ops: Vec<&T>, calm: impl Fn(&T) -> bool, min: usize) -> Vec<&T> {
    let kept: Vec<&T> = ops.iter().copied().filter(|op| calm(op)).collect();
    if kept.len() >= min.max(1) {
        kept
    } else {
        ops
    }
}

/// The line that tells a reader which ops the timings are from.
pub fn calm_note(ops: usize, calm: usize, min: usize) -> String {
    format!(
        "{ops} ops, {calm} of them calm (the host gave the PEs at least {CALM_SHARE} of their \
         cores before and after); timings are from {}",
        if calm >= min {
            "the calm ops"
        } else {
            "ALL ops, which is NOT the stated configuration"
        }
    )
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
