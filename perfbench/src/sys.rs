//! The process-control calls `std` does not expose: becoming the
//! subreaper of every descendant, `wait4` with its resource usage, and
//! signalling a whole process group. Declared by hand because the
//! repository vendors no `libc` crate; the layouts are Linux LP64.

use std::io;
use std::os::raw::{c_int, c_long, c_ulong};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const PR_SET_CHILD_SUBREAPER: c_int = 36;
const WNOHANG: c_int = 1;
const SIGKILL: c_int = 9;
const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;
const ECHILD: i32 = 10;
const EINTR: i32 = 4;

/// CPU time and peak resident set of one reaped process, including the
/// descendants it waited for itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU, seconds.
    pub cpu_s: f64,
    /// Peak resident set, KiB.
    pub maxrss_kb: i64,
}

impl Usage {
    fn of(ru: &Rusage) -> Usage {
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            maxrss_kb: ru.maxrss_kb,
        }
    }

    /// Fold another process's usage into this one: CPU adds up, the peak
    /// is the larger of the two.
    pub fn absorb(&mut self, other: Usage) {
        self.cpu_s += other.cpu_s;
        self.maxrss_kb = self.maxrss_kb.max(other.maxrss_kb);
    }
}

/// How a reaped process ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Exited with this code.
    Code(i32),
    /// Killed by this signal.
    Signal(i32),
}

impl Exit {
    fn of(status: c_int) -> Exit {
        if status & 0x7f == 0 {
            Exit::Code((status >> 8) & 0xff)
        } else {
            Exit::Signal(status & 0x7f)
        }
    }
}

/// Make this process the reaper of every orphaned descendant, so a
/// fleet worker or sandbox child that outlives its parent is re-parented
/// here, where [`reap_any`] can see it, instead of to init.
pub fn become_subreaper() -> io::Result<()> {
    // SAFETY: PR_SET_CHILD_SUBREAPER takes one integer argument and
    // touches no memory of ours.
    let rc = unsafe { prctl(PR_SET_CHILD_SUBREAPER, 1 as c_ulong) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

fn wait(pid: c_int, options: c_int) -> io::Result<Option<(i32, Exit, Usage)>> {
    loop {
        let mut status: c_int = 0;
        let mut ru = Rusage::default();
        // SAFETY: both out-pointers reference live locals of the exact
        // C layout wait4 writes.
        let rc = unsafe { wait4(pid, &mut status, options, &mut ru) };
        if rc > 0 {
            return Ok(Some((rc, Exit::of(status), Usage::of(&ru))));
        }
        if rc == 0 {
            return Ok(None);
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
}

/// Block until child `pid` ends; reap it and return its exit and usage.
pub fn wait_child(pid: u32) -> io::Result<(Exit, Usage)> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    match wait(pid, 0)? {
        Some((_, exit, usage)) => Ok((exit, usage)),
        None => Err(io::Error::other("wait4 returned without a child")),
    }
}

/// Block until any child ends; reap it and return its exit and usage.
pub fn wait_any() -> io::Result<(Exit, Usage)> {
    match wait(-1, 0)? {
        Some((_, exit, usage)) => Ok((exit, usage)),
        None => Err(io::Error::other("wait4 returned without a child")),
    }
}

/// One non-blocking look at this process's children.
#[derive(Debug)]
pub enum Reap {
    /// A child had ended and is now reaped.
    Reaped(Usage),
    /// Children exist and all are still running.
    Running,
    /// No children at all.
    Empty,
}

/// Reap one ended child, if any, without blocking.
pub fn reap_any() -> io::Result<Reap> {
    match wait(-1, WNOHANG) {
        Ok(Some((_, _, usage))) => Ok(Reap::Reaped(usage)),
        Ok(None) => Ok(Reap::Running),
        Err(e) if e.raw_os_error() == Some(ECHILD) => Ok(Reap::Empty),
        Err(e) => Err(e),
    }
}

/// SIGKILL every process in group `pgid`. A group that is already empty
/// is not an error.
pub fn kill_group(pgid: u32) {
    if let Ok(pgid) = c_int::try_from(pgid) {
        // SAFETY: kill takes plain integers; a negative pid addresses the
        // process group.
        unsafe {
            kill(-pgid, SIGKILL);
        }
    }
}

/// CPU consumed so far by this process plus every child it has reaped.
pub fn cpu_s() -> f64 {
    let mut total = 0.0;
    for who in [RUSAGE_SELF, RUSAGE_CHILDREN] {
        let mut ru = Rusage::default();
        // SAFETY: the out-pointer references a live local of the exact C
        // layout getrusage writes.
        if unsafe { getrusage(who, &mut ru) } == 0 {
            total += Usage::of(&ru).cpu_s;
        }
    }
    total
}
