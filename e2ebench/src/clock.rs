//! The clock every timed region reads: CPU time of the whole process.
//!
//! On a shared virtual machine, wall time also counts the time the host
//! takes the virtual CPUs away (steal) and the time other processes hold
//! them, and both drift from minute to minute. Process CPU time counts
//! only the time this process's threads ran — the construction worker's
//! included — which Linux keeps free of steal when it accounts
//! paravirtual steal time. Serving is single-threaded and compute-bound,
//! so there its CPU time is the latency a request sees on an unshared
//! core. What CPU time still varies with — the same instructions running
//! slower while neighbours load the memory side of the host — is divided
//! out by [`crate::calibrate`].

use std::time::Duration;

/// A reading of the process CPU clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    /// The process CPU time consumed so far.
    pub fn now() -> CpuInstant {
        CpuInstant(process_cpu_time())
    }

    /// CPU time consumed since `self`.
    pub fn elapsed(self) -> Duration {
        CpuInstant::now() - self
    }
}

impl std::ops::Sub for CpuInstant {
    type Output = Duration;

    fn sub(self, earlier: CpuInstant) -> Duration {
        self.0.saturating_sub(earlier.0)
    }
}

// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` by direct FFI (libc is
// linked by std; the workspace vendors no `libc` crate). Linux only, as
// is the rest of the benchmark (it reads `/proc`).

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout) and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_with_work() {
        let start = CpuInstant::now();
        let mut last = start;
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
            let now = CpuInstant::now();
            assert!(now >= last, "the CPU clock went back");
            last = now;
        }
        assert!(x > 0);
    }
}
