//! Process CPU time, next to wall time.
//!
//! On a host whose cores are shared with other machines, a thread that
//! is ready to run can wait for a core, and wall time counts that wait.
//! CPU time counts only the time this process's threads ran, so it
//! measures the program's own work.

use std::ffi::{c_int, c_long};
use std::time::Instant;

/// `struct timespec` of Linux with glibc: `time_t` and the nanoseconds
/// are both a C `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux: CPU time of every
/// thread of the process, including threads that have ended.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds this process has used so far, all threads included.
///
/// # Panics
///
/// Panics if the clock cannot be read, which Linux does not allow for
/// this clock.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the C layout for
    // the whole call, and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one stretch of work.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Times {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl std::ops::Add for Times {
    type Output = Times;

    fn add(self, other: Times) -> Times {
        Times {
            wall_s: self.wall_s + other.wall_s,
            cpu_s: self.cpu_s + other.cpu_s,
        }
    }
}

/// Reads wall and process CPU time from one starting point.
#[derive(Debug)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_secs(),
        }
    }

    /// Wall and CPU seconds since [`Stopwatch::start`].
    pub fn read(&self) -> Times {
        Times {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_secs() - self.cpu_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_keeps_the_time_of_ended_threads() {
        let start = process_cpu_secs();
        let seen_by_thread = std::thread::spawn(move || {
            let mut x = 0u64;
            while process_cpu_secs() - start < 0.02 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            process_cpu_secs()
        })
        .join()
        .expect("the spinning thread ends");
        assert!(process_cpu_secs() >= seen_by_thread);
        let t = Stopwatch::start().read();
        assert!(t.wall_s >= 0.0 && t.cpu_s >= 0.0, "{t:?}");
    }

    #[test]
    fn times_add_field_by_field() {
        let a = Times {
            wall_s: 1.0,
            cpu_s: 0.5,
        };
        let b = Times {
            wall_s: 2.0,
            cpu_s: 1.5,
        };
        assert_eq!(
            a + b,
            Times {
                wall_s: 3.0,
                cpu_s: 2.0
            }
        );
    }
}
