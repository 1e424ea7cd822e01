//! The calibration kernel and the drift correction built on it.
//!
//! The sandbox's speed drifts: the same code runs 10–35 % slower or faster
//! from one second — and one minute — to the next, depending on what the
//! host's other tenants do. A fixed kernel (sort 16 384 xorshift values,
//! ~0.18 ms) is therefore run right before everything that is timed, and
//! the ratio `REFERENCE_KERNEL_NS / adjacent` scales a measured time to
//! what it would have been on a machine that runs the kernel in exactly
//! the reference time. Over ~20 passes the lower quartile of a request's
//! corrected times repeats within 2–3 % between runs, where its raw median
//! moves by 15–25 %.
//!
//! The reference is a constant, not the fastest kernel run of the process:
//! the machine is at its fastest for only 1–5 % of a run, sometimes for
//! none of it (observed: whole runs whose fastest kernel run took 186, 194
//! and 205 µs), and a process that never sees that speed would scale all
//! its times to a slower machine, 5–15 % up.

use std::cell::RefCell;
use std::time::Instant;

/// Values the kernel sorts.
const KERNEL_VALUES: usize = 16_384;

/// The kernel time every measurement is scaled to: this sandbox's kernel
/// time when the host leaves it alone (the fastest of ~3 000 runs was
/// 176–181 µs in eleven processes out of twelve). Reported times are times
/// on a machine of that speed.
pub const REFERENCE_KERNEL_NS: u64 = 178_000;

thread_local! {
    static BUFFER: RefCell<Vec<u64>> = RefCell::new(Vec::with_capacity(KERNEL_VALUES));
}

/// Runs the kernel once and returns its wall time in nanoseconds.
pub fn kernel_ns() -> u64 {
    BUFFER.with(|buffer| {
        let mut values = buffer.borrow_mut();
        let begin = Instant::now();
        values.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..KERNEL_VALUES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(x);
        }
        values.sort_unstable();
        std::hint::black_box(&*values);
        begin.elapsed().as_nanos() as u64
    })
}

/// One timed stretch with the kernel run that preceded it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Wall time.
    pub wall_ns: u64,
    /// User + system CPU of the whole process.
    pub cpu_ns: u64,
    /// The adjacent kernel run.
    pub kernel_ns: u64,
}

impl Sample {
    /// Wall time scaled to the reference machine, in ms.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6 * self.scale()
    }

    /// CPU time scaled to the reference machine, in ms.
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_ns as f64 / 1e6 * self.scale()
    }

    fn scale(&self) -> f64 {
        if self.kernel_ns == 0 {
            1.0
        } else {
            REFERENCE_KERNEL_NS as f64 / self.kernel_ns as f64
        }
    }
}

/// The estimate reported for a repeated measurement: the lower quartile
/// of its corrected values (`value` picks wall or CPU time). Contention
/// only ever adds time, and the correction can overshoot when a burst hits
/// the kernel but not the request, so neither the minimum nor the median is
/// as steady.
pub fn estimate_ms(samples: &[Sample], value: fn(&Sample) -> f64) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(value).collect();
    crate::stats::percentile_of(&mut values, 25.0)
}

/// Starts timing: runs the kernel, then reads the clocks.
pub struct Stopwatch {
    kernel_ns: u64,
    cpu_ns: u64,
    begin: Instant,
}

impl Stopwatch {
    /// Runs the kernel and starts the clocks.
    pub fn start() -> Stopwatch {
        let kernel_ns = kernel_ns();
        Stopwatch {
            kernel_ns,
            cpu_ns: crate::sys::process_cpu_ns(),
            begin: Instant::now(),
        }
    }

    /// Stops the clocks of a long stretch (tens of milliseconds and more)
    /// and runs the kernel again: the machine may have drifted meanwhile, so
    /// the stretch is scaled by the mean of the kernel runs around it.
    pub fn stop_bracketed(self) -> Sample {
        let mut sample = self.stop();
        sample.kernel_ns = (sample.kernel_ns + kernel_ns()) / 2;
        sample
    }

    /// Stops the clocks.
    pub fn stop(self) -> Sample {
        let wall_ns = self.begin.elapsed().as_nanos() as u64;
        Sample {
            wall_ns,
            cpu_ns: crate::sys::process_cpu_ns() - self.cpu_ns,
            kernel_ns: self.kernel_ns,
        }
    }
}
