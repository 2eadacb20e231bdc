//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, timer cost, and how fast the host runs right now.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by every thread of this process so far, nanoseconds.
/// The standard library has no call for it, hence the one foreign call.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Mean cost of one `Instant::now()` pair, nanoseconds.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let start = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now().elapsed());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// What one [`HostProbe::sample`] takes on the reference host at its
/// usual speed: the median over an hour of runs (fastest 26 µs, quartiles
/// 36 and 45 µs). A host factor of 1 is that speed. The constant only
/// fixes the unit of the timed metrics; a comparison of two commits on one
/// host does not depend on it.
pub const HOST_REF_NS: f64 = 37_000.0;

/// Elements of the probe's lane: 16 KiB of `f32`, resident in the L1 cache.
const LANE_LEN: usize = 4096;
/// Passes of the probe's kernel over its lane.
const LANE_PASSES: usize = 256;

/// A fixed amount of bench-owned arithmetic, timed: how fast the host's
/// cores run at this moment.
///
/// The reference host is a shared virtual machine whose cores change
/// speed from second to second (the same kernel takes 26 to 70 µs,
/// following what the host's other tenants do), and every workload's step
/// time follows. A sample right after each timed step tells the two
/// apart: a step that took 30 % longer while the probe also took 30 %
/// longer ran on a slower host, not through slower code. The kernel is
/// the benchmark's own — fused multiply-adds over one lane, no call into
/// the program — so a change to the program cannot move it.
pub struct HostProbe {
    buf: Vec<f32>,
    /// First cache-line-aligned element of `buf`.
    start: usize,
}

impl Default for HostProbe {
    fn default() -> Self {
        // A line is 16 `f32`s; the spare ones let the lane start on one,
        // wherever the allocator put the buffer (a lane that straddles
        // lines runs at half speed, which would read as a slow host).
        let buf = vec![1.0f32; LANE_LEN + 16];
        let start = buf.as_ptr().align_offset(64).min(16);
        HostProbe { buf, start }
    }
}

impl HostProbe {
    /// Runs the kernel once and returns how long it took, nanoseconds.
    pub fn sample(&mut self) -> f64 {
        let lane = &mut self.buf[self.start..self.start + LANE_LEN];
        let t = Instant::now();
        for _ in 0..LANE_PASSES {
            // Each pass reads the previous one's values; the black box
            // keeps the passes from being merged. The values stay near 1.
            for x in std::hint::black_box(&mut *lane).iter_mut() {
                *x = x.mul_add(0.999_999, 1e-6);
            }
        }
        t.elapsed().as_nanos() as f64
    }
}

/// The host factors of a series of probe samples: each sample's median
/// with its `HALF_WINDOW` neighbours on either side, over
/// [`HOST_REF_NS`]. Above 1, the host ran slower than the reference.
pub fn host_factors(samples_ns: &[f64]) -> Vec<f64> {
    const HALF_WINDOW: usize = 2;
    (0..samples_ns.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(samples_ns.len());
            crate::stats::median(&samples_ns[lo..hi]) / HOST_REF_NS
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_factor_is_the_windowed_median_over_the_reference() {
        let r = HOST_REF_NS;
        // One preempted sample does not move its neighbours' factors.
        let f = host_factors(&[r, r, 9.0 * r, r, r, 2.0 * r, 2.0 * r, 2.0 * r]);
        assert_eq!(&f[..4], &[1.0, 1.0, 1.0, 1.0]);
        // A lasting slow-down does.
        assert_eq!(f[6], 2.0);
        assert_eq!(f[7], 2.0);
        assert!(host_factors(&[]).is_empty());
    }

    #[test]
    fn host_readings_are_positive() {
        assert!(HostProbe::default().sample() > 0.0);
        assert!(timer_overhead_ns() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ns() > 0);
    }
}
