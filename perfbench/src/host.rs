//! The benchmark's only readings of the host: a wall-clock stopwatch and
//! the process's peak resident set size. Simulated time never comes from
//! here; these numbers are host-time and host-memory metrics only.

/// A running host wall-clock timer.
#[derive(Clone, Copy)]
pub struct Stopwatch(
    // simlint: allow(wall-clock, reason = "the benchmark times the host running the simulator, never simulated time")
    std::time::Instant,
);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        // simlint: allow(wall-clock, reason = "the benchmark times the host running the simulator, never simulated time")
        Stopwatch(std::time::Instant::now())
    }

    /// Host seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Times `f`, returning its output and the host seconds it took.
pub fn timed<O>(f: impl FnOnce() -> O) -> (O, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.secs())
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("peak_rss_mib reads `struct rusage` with the 64-bit Linux layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s,
/// of which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    _times: [i64; 4],
    maxrss_kib: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process so far, MiB (the kernel's
/// high-water mark, the same figure as `VmHWM`). It never decreases
/// within a process, so each workload is measured in a process of its own.
pub fn peak_rss_mib() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        _times: [0; 4],
        maxrss_kib: 0,
        _rest: [0; 13],
    };
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer;
    // `RUsage` has exactly that layout on the 64-bit Linux targets the
    // `compile_error!` above restricts this file to, and `usage` is a live,
    // exclusively borrowed local for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage.maxrss_kib as f64 / 1024.0
}
