//! Process-level probes: a counting global allocator, minor page
//! faults and peak RSS from `/proc`, the host fingerprint, and a fixed
//! host-speed probe.
//!
//! Allocation and fault counts repeat exactly for a given seed, so a
//! per-layer claim resting on them does not depend on noisy wall time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator, counting allocations while [`set_counting`]
/// is on. Off, it costs one relaxed load of a line no thread writes.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counters never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// A point-in-time reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Allocations (including reallocations) counted so far.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Minor page faults of the whole process.
    pub minor_faults: u64,
}

impl Counters {
    /// Reads the counters now.
    pub fn now() -> Counters {
        Counters {
            allocs: ALLOCS.load(Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Relaxed),
            minor_faults: minor_faults(),
        }
    }

    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Minor faults of the process (field 10 of `/proc/self/stat`), or 0
/// where `/proc` is unavailable.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build identity recorded with every result.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl Fingerprint {
    pub fn collect() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".into(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc,
            commit: commit(),
        }
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (never from a parent directory); a checkout without `.git` records
/// `unknown`.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{refname}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A fixed host-speed probe: a dependent integer chain (compute) and a
/// strided sweep over 2 MiB (memory), in milliseconds each. It is
/// recorded beside the metrics and never used to scale them; it lets a
/// reader tell a slow host phase from a regression.
pub fn host_speed() -> (f64, f64) {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000_000u64 {
        x = x.rotate_left(7) ^ x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i);
    }
    std::hint::black_box(x);
    let compute_ms = t.elapsed().as_secs_f64() * 1e3;

    let buf = vec![1u64; 256 << 10];
    let t = Instant::now();
    let mut sum = 0u64;
    for pass in 0..64 {
        for i in (pass % 8..buf.len()).step_by(8) {
            sum = sum.wrapping_add(buf[i]);
        }
    }
    std::hint::black_box(sum);
    let memory_ms = t.elapsed().as_secs_f64() * 1e3;
    (compute_ms, memory_ms)
}
