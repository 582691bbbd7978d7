//! The host under the benchmark: reaping children with their resource
//! usage, and the fingerprint printed with every result.

use std::process::{Child, Command};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: std::os::raw::c_long,
    tv_usec: std::os::raw::c_long,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two timevals
/// and fourteen longs, of which only `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: std::os::raw::c_long,
    rest: [std::os::raw::c_long; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited with status 0.
    pub ok: bool,
    /// Peak resident set of this child alone, in MB.
    pub max_rss_mb: f64,
    /// User + system CPU seconds of this child alone.
    pub cpu_s: f64,
}

/// Wait for `child` and return its own `rusage`. `wait4` is used instead
/// of `Child::wait` + `getrusage(RUSAGE_CHILDREN)` because the latter is a
/// running maximum over every child the harness ever reaped, set-up
/// included. Even so `ru_maxrss` has a floor: the caller's own peak
/// resident set at the fork, which exec folds into the child's. The
/// harness stays far smaller than its children (see `main::run`).
pub fn reap(child: Child) -> std::io::Result<Exit> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid for writes for the whole
        // call, `usage` has the kernel's `struct rusage` layout, and the
        // pid names a child of this process that std has not reaped (the
        // `Child` is consumed here and never waited on).
        let ret = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if ret >= 0 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(Exit {
        ok: status == 0,
        max_rss_mb: usage.ru_maxrss as f64 / 1024.0,
        cpu_s: seconds(&usage.ru_utime) + seconds(&usage.ru_stime),
    })
}

/// Where the numbers were taken. Printed with every result so a table
/// pasted elsewhere still says what produced it.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // The driver's checkout is not a git repository; say so rather
        // than fail.
        let git_rev = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            git_rev,
        }
    }
}
