//! Order statistics, process facts and small OS helpers shared by every
//! workload.

use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The filtered MRR a scorer that ranks uniformly at random would get on
/// `num_entities` candidates: `H_N / N`.
pub fn random_mrr(num_entities: usize) -> f64 {
    (1..=num_entities).map(|i| 1.0 / i as f64).sum::<f64>() / num_entities as f64
}

/// FNV-1a-style 64-bit hash over a stream of f32 bit patterns, one word
/// per step — the bit-identity fingerprint of a parameter table.
pub fn hash_f32(h: u64, values: &[f32]) -> u64 {
    values.iter().fold(h, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64-bit offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a hash of the running executable, so every result names the
/// binary that produced it.
pub fn binary_fingerprint() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| std::fs::read(p).ok())
        .map(|bytes| {
            let mut h = FNV_START;
            for b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            format!("fnv1a64:{h:016x}")
        })
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// Kernel dispatch paths the math crate will take on this machine.
pub fn kernel_path() -> String {
    let mut parts = Vec::new();
    if mei_math::kernels::avx2_fma_enabled() {
        parts.push("avx2+fma");
    } else {
        parts.push("scalar-f32");
    }
    if mei_math::avx512_vnni_enabled() {
        parts.push("avx512-vnni");
    } else {
        parts.push("portable-i8");
    }
    parts.join(",")
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getcpu() -> i32;
}

/// Peak resident set size of this process in MiB (the kernel's VmHWM,
/// read through `getrusage`).
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage`
    // (x86-64 Linux layout: two timevals then fourteen longs), and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.ru_maxrss as f64 / 1024.0
}

/// Words in a `cpu_set_t` (1024 CPUs).
const CPUSET_WORDS: usize = 16;

/// Runs `f` with the calling thread confined to the CPU it is on, then
/// restores its mask. The vendored rayon shim sizes its shards from the
/// thread's CPU mask, so evaluation inside `f` runs on one thread — the
/// same single worker the trainers use, and the same parallelism the
/// single-threaded layer replays have, so their times compare.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let mut saved = [0u64; CPUSET_WORDS];
    // SAFETY: `saved` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, CPUSET_WORDS * 8, saved.as_mut_ptr()) };
    // SAFETY: no arguments; returns the CPU this thread runs on or -1.
    let cpu = unsafe { sched_getcpu() };
    if got < 0 || cpu < 0 || cpu as usize >= CPUSET_WORDS * 64 {
        return f();
    }
    let mut one = [0u64; CPUSET_WORDS];
    one[cpu as usize / 64] = 1 << (cpu as usize % 64);
    // SAFETY: `one` is a readable mask buffer of the size passed.
    let pinned = unsafe { sched_setaffinity(0, CPUSET_WORDS * 8, one.as_ptr()) } == 0;
    let out = f();
    if pinned {
        // SAFETY: `saved` holds the mask read above, of the size passed.
        unsafe { sched_setaffinity(0, CPUSET_WORDS * 8, saved.as_ptr()) };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }

    #[test]
    fn random_mrr_matches_harmonic_mean() {
        assert!((random_mrr(1) - 1.0).abs() < 1e-12);
        assert!((random_mrr(2) - 0.75).abs() < 1e-12);
    }
}
