//! Resource limits and self-inflicted signals.
//!
//! The workspace forbids `unsafe` everywhere else; this module is the one
//! sanctioned exception, kept to four minimal libc calls (`setrlimit`,
//! `raise`, `waitid`, `wait4`) declared by hand — std already links libc
//! on Unix, so no external crate is needed. Everything exported is a safe
//! wrapper; on non-Unix platforms the wrappers report the call as
//! unsupported and callers fall back to thread-mode isolation.

/// SIGABRT: abnormal termination (Rust's `abort`, failed allocations).
pub const SIGABRT: i32 = 6;
/// SIGKILL: unconditional kill, also what `Child::kill` delivers.
pub const SIGKILL: i32 = 9;
/// SIGSEGV: invalid memory access.
pub const SIGSEGV: i32 = 11;
/// SIGXCPU: the RLIMIT_CPU soft limit fired.
pub const SIGXCPU: i32 = 24;

/// Human-readable name for the signals the taxonomy cares about.
#[must_use]
pub fn signal_name(signal: i32) -> &'static str {
    match signal {
        SIGABRT => "SIGABRT",
        SIGKILL => "SIGKILL",
        SIGSEGV => "SIGSEGV",
        SIGXCPU => "SIGXCPU",
        _ => "signal",
    }
}

/// The substring Rust's default allocation-error handler prints to stderr
/// before aborting. Its presence alongside a SIGABRT death is how the
/// parent distinguishes `OomKilled` from a plain abort.
pub const OOM_STDERR_MARKER: &str = "memory allocation of";

#[cfg(unix)]
// The workspace-wide unsafe ban (R1005) stops at this module: setrlimit,
// waitid and wait4 have no safe std wrapper, so the sandbox declares the
// libc bindings itself and keeps the unsafe surface to these few lines.
#[allow(unsafe_code)]
mod ffi {
    //! Hand-declared libc bindings (std links libc on every Unix target).

    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    pub struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    /// `siginfo_t`, opaque: 128 bytes on every target this covers, and
    /// only ever written by the kernel.
    #[repr(C)]
    pub struct SigInfo {
        _bytes: [u64; 16],
    }

    /// `struct rusage`: two `timeval`s, then fourteen `long`s of which
    /// only `ru_maxrss` is read.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        _utime: [c_long; 2],
        _stime: [c_long; 2],
        pub maxrss: c_long,
        _rest: [c_long; 13],
    }

    extern "C" {
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn raise(sig: i32) -> i32;
        fn waitid(idtype: c_int, id: u32, infop: *mut SigInfo, options: c_int) -> c_int;
        fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    }

    const P_PID: c_int = 1;
    const WEXITED: c_int = 4;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const WNOWAIT: c_int = 0x0100_0000;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const WNOWAIT: c_int = 0x20;
    const EINTR: i32 = 4;

    /// `ru_maxrss` is in KiB on Linux and in bytes on macOS.
    #[cfg(target_os = "macos")]
    const MAXRSS_UNIT: u64 = 1;
    #[cfg(not(target_os = "macos"))]
    const MAXRSS_UNIT: u64 = 1024;

    /// Resource numbers differ per kernel; cover the targets std supports
    /// that this workspace plausibly runs on.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const RLIMIT_CPU: i32 = 0;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const RLIMIT_AS: i32 = 9;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const RLIMIT_CPU: i32 = 0;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const RLIMIT_AS: i32 = 5;

    pub fn set_rlimit(resource: i32, value: u64) -> Result<(), String> {
        let lim = RLimit {
            cur: value,
            max: value,
        };
        // SAFETY: `lim` is a valid, live `struct rlimit`; setrlimit only
        // reads through the pointer for the duration of the call.
        let rc = unsafe { setrlimit(resource, &lim) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "setrlimit(resource {resource}, {value}) failed with {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    pub fn raise_signal(sig: i32) -> Result<(), String> {
        // SAFETY: raise takes a plain integer and delivers the signal to
        // the calling thread; no memory is involved.
        let rc = unsafe { raise(sig) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!("raise({sig}) failed"))
        }
    }

    /// Retry `call` while it fails with EINTR.
    fn retrying(mut call: impl FnMut() -> c_int) -> Result<c_int, std::io::Error> {
        loop {
            let rc = call();
            if rc >= 0 {
                return Ok(rc);
            }
            let err = std::io::Error::last_os_error();
            if err.raw_os_error() != Some(EINTR) {
                return Err(err);
            }
        }
    }

    pub fn wait_exited(pid: u32) -> Result<(), String> {
        let mut info = SigInfo { _bytes: [0; 16] };
        // SAFETY: `info` is a live, writable buffer the size of the
        // kernel's siginfo_t; waitid writes through it only during the
        // call. WNOWAIT leaves the child waitable, so nothing is reaped.
        retrying(|| unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) })
            .map(|_| ())
            .map_err(|e| format!("waitid({pid}) failed with {e}"))
    }

    pub fn reap(pid: u32) -> Result<(c_int, u64), String> {
        let id = c_int::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
        let mut status: c_int = 0;
        let mut usage = Rusage::default();
        // SAFETY: both out-pointers reference live locals of the exact C
        // layout wait4 writes, and are not retained past the call.
        retrying(|| unsafe { wait4(id, &mut status, 0, &mut usage) })
            .map_err(|e| format!("wait4({pid}) failed with {e}"))?;
        let peak_rss_bytes = u64::try_from(usage.maxrss).unwrap_or(0) * MAXRSS_UNIT;
        Ok((status, peak_rss_bytes))
    }
}

/// How a reaped child ended, with the resource usage the kernel kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reaped {
    /// The child's wait status.
    pub status: std::process::ExitStatus,
    /// The child's peak resident set (`ru_maxrss`), in bytes.
    pub peak_rss_bytes: u64,
}

/// Block until child `pid` has exited, *without* reaping it: the child
/// stays a zombie, so its pid cannot be reused and a late `kill` on it
/// is harmless. Pair with [`reap`].
pub fn wait_exited(pid: u32) -> Result<(), String> {
    #[cfg(unix)]
    {
        ffi::wait_exited(pid)
    }
    #[cfg(not(unix))]
    {
        let _ = pid;
        Err("waitid is not supported on this platform".to_string())
    }
}

/// Reap child `pid`, blocking until it exits, and return its wait status
/// and peak resident set. Call at most once per child.
pub fn reap(pid: u32) -> Result<Reaped, String> {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        let (status, peak_rss_bytes) = ffi::reap(pid)?;
        Ok(Reaped {
            status: std::process::ExitStatus::from_raw(status),
            peak_rss_bytes,
        })
    }
    #[cfg(not(unix))]
    {
        let _ = pid;
        Err("wait4 is not supported on this platform".to_string())
    }
}

/// Cap the process's address space (RLIMIT_AS) to `bytes`.
pub fn apply_rlimit_as(bytes: u64) -> Result<(), String> {
    #[cfg(unix)]
    {
        ffi::set_rlimit(ffi::RLIMIT_AS, bytes)
    }
    #[cfg(not(unix))]
    {
        let _ = bytes;
        Err("RLIMIT_AS is not supported on this platform".to_string())
    }
}

/// Cap the process's CPU time (RLIMIT_CPU) to `seconds`.
pub fn apply_rlimit_cpu(seconds: u64) -> Result<(), String> {
    #[cfg(unix)]
    {
        ffi::set_rlimit(ffi::RLIMIT_CPU, seconds)
    }
    #[cfg(not(unix))]
    {
        let _ = seconds;
        Err("RLIMIT_CPU is not supported on this platform".to_string())
    }
}

/// Deliver `signal` to the current process. Used by hard-fault injection
/// to die exactly the way a real crash would (`raise(SIGKILL)` cannot be
/// caught, blocked or unwound). Falls back to `process::abort` when the
/// signal cannot be raised so the caller never continues past this point.
pub fn die_by_signal(signal: i32) -> ! {
    #[cfg(unix)]
    {
        let _ = ffi::raise_signal(signal);
        // raise() queues the signal for this thread; on return the
        // process should already be gone. If delivery failed, abort.
        std::process::abort();
    }
    #[cfg(not(unix))]
    {
        let _ = signal;
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_names_cover_the_taxonomy() {
        assert_eq!(signal_name(SIGKILL), "SIGKILL");
        assert_eq!(signal_name(SIGABRT), "SIGABRT");
        assert_eq!(signal_name(SIGSEGV), "SIGSEGV");
        assert_eq!(signal_name(SIGXCPU), "SIGXCPU");
        assert_eq!(signal_name(2), "signal");
    }

    #[cfg(unix)]
    #[test]
    fn an_absurdly_large_rlimit_is_accepted() {
        // Setting a limit far above current usage must succeed and must
        // not disturb the test process.
        assert!(apply_rlimit_as(u64::MAX / 2).is_ok());
    }
}
