//! The parent side of the sandbox: spawning workers, monitoring
//! heartbeats and deadlines, and classifying every child ending into the
//! crash taxonomy.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use crate::clock::WallSpan;

use crate::limits::{self, OOM_STDERR_MARKER, SIGABRT};
use crate::policy::SandboxPolicy;
use crate::protocol::{self, Frame};

/// Largest stderr tail retained per child, in bytes. Enough for a panic
/// backtrace header or the allocator's OOM message; bounded so a child
/// that floods stderr cannot balloon the parent.
const STDERR_TAIL_BYTES: usize = 8 * 1024;

/// Every way a sandboxed child can end, from the parent's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChildOutcome {
    /// The handler finished; the payload is its marshalled result.
    Completed(String),
    /// The handler reported a transient error (retryable), or the child
    /// ended without following the protocol.
    Failed(String),
    /// The handler panicked; the message is the panic payload.
    Panicked(String),
    /// The child died to a signal it did not survive (SIGSEGV, SIGABRT,
    /// SIGKILL, SIGXCPU, ...).
    Signalled {
        /// The terminating signal number.
        signal: i32,
    },
    /// The child aborted on a failed allocation: SIGABRT with the
    /// allocator's out-of-memory message on stderr, i.e. the RLIMIT_AS
    /// backstop fired.
    OomKilled,
    /// The child went silent past the heartbeat budget and was killed.
    HeartbeatLost {
        /// How long the child had been silent when it was killed.
        silent_ms: u64,
    },
    /// The child outlived the cell deadline and was killed.
    DeadlineExceeded {
        /// The wall-clock budget it exceeded.
        budget_ms: u64,
    },
    /// The worker process could not be spawned at all.
    SpawnFailed(String),
}

impl ChildOutcome {
    /// Short stable label for metrics and crash reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ChildOutcome::Completed(_) => "completed",
            ChildOutcome::Failed(_) => "failed",
            ChildOutcome::Panicked(_) => "panicked",
            ChildOutcome::Signalled { .. } => "signalled",
            ChildOutcome::OomKilled => "oom_killed",
            ChildOutcome::HeartbeatLost { .. } => "heartbeat_lost",
            ChildOutcome::DeadlineExceeded { .. } => "deadline_exceeded",
            ChildOutcome::SpawnFailed(_) => "spawn_failed",
        }
    }
}

/// Everything the parent observed about one child, for crash reports and
/// sandbox metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildReport {
    /// The classified ending.
    pub outcome: ChildOutcome,
    /// Exit code, when the child exited normally.
    pub exit_code: Option<i32>,
    /// Terminating signal, when the child died to one.
    pub signal: Option<i32>,
    /// Milliseconds after spawn of the last heartbeat received, if any.
    pub last_heartbeat_ms: Option<u64>,
    /// Total heartbeats received from this child.
    pub heartbeats: u64,
    /// Peak resident set size (`ru_maxrss` from the reaping `wait4`);
    /// `None` when the child could not be reaped.
    pub peak_rss_bytes: Option<u64>,
    /// Child lifetime in wall milliseconds.
    pub wall_ms: u64,
    /// Bounded tail of the child's stderr.
    pub stderr_tail: String,
}

/// Per-request resource limits, derived by the caller from the cell being
/// run (see [`crate::policy`] for the derivation rules). `None` leaves
/// the corresponding limit unset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestLimits {
    /// RLIMIT_AS for this child, in bytes.
    pub rlimit_as_bytes: Option<u64>,
    /// RLIMIT_CPU for this child, in seconds.
    pub rlimit_cpu_s: Option<u64>,
}

/// Spawns and supervises sandbox workers.
///
/// The pool is stateless between runs (each [`SandboxPool::run`] call
/// spawns one child and blocks until it is classified), so one pool can
/// be shared by any number of supervisor threads.
#[derive(Debug, Clone)]
pub struct SandboxPool {
    exe: PathBuf,
    policy: SandboxPolicy,
    deadline_ms: Option<u64>,
    extra_env: Vec<(String, String)>,
}

impl SandboxPool {
    /// A pool spawning `exe` as the worker binary under `policy`.
    #[must_use]
    pub fn new(exe: PathBuf, policy: SandboxPolicy) -> Self {
        SandboxPool {
            exe,
            policy,
            deadline_ms: None,
            extra_env: Vec::new(),
        }
    }

    /// Set the per-child wall-clock deadline. `None` or `Some(0)`
    /// disables the deadline watchdog (the heartbeat monitor still runs).
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: Option<u64>) -> Self {
        self.deadline_ms = match deadline_ms {
            Some(0) | None => None,
            other => other,
        };
        self
    }

    /// Add an environment variable to every spawned child (test hook,
    /// e.g. [`protocol::ENV_NO_HEARTBEAT`]).
    #[must_use]
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.extra_env.push((key.to_string(), value.to_string()));
        self
    }

    /// The policy this pool applies.
    #[must_use]
    pub fn policy(&self) -> &SandboxPolicy {
        &self.policy
    }

    /// Run one request in a fresh child and block until it is classified.
    pub fn run(&self, request: &str, limits: RequestLimits) -> ChildReport {
        let mut command = Command::new(&self.exe);
        command
            .env(protocol::ENV_WORKER, "1")
            .env(
                protocol::ENV_HEARTBEAT_MS,
                self.policy.heartbeat_interval_ms.to_string(),
            )
            .env_remove(protocol::ENV_NO_HEARTBEAT)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(bytes) = limits.rlimit_as_bytes {
            command.env(protocol::ENV_RLIMIT_AS, bytes.to_string());
        }
        if let Some(seconds) = limits.rlimit_cpu_s {
            command.env(protocol::ENV_RLIMIT_CPU, seconds.to_string());
        }
        for (key, value) in &self.extra_env {
            command.env(key, value);
        }

        let spawned_at = WallSpan::begin();
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => {
                return ChildReport {
                    outcome: ChildOutcome::SpawnFailed(format!(
                        "could not spawn {}: {e}",
                        self.exe.display()
                    )),
                    exit_code: None,
                    signal: None,
                    last_heartbeat_ms: None,
                    heartbeats: 0,
                    peak_rss_bytes: None,
                    wall_ms: 0,
                    stderr_tail: String::new(),
                }
            }
        };
        let pid = child.id();

        // Deliver the request and close stdin so the worker sees EOF.
        // A child that dies instantly (self-SIGKILL hard faults) breaks
        // the pipe; std ignores SIGPIPE, so the write error is benign.
        if let Some(mut stdin) = child.stdin.take() {
            let _ = stdin.write_all(request.as_bytes());
        }

        // The stdout reader forwards heartbeats and the final frame, and
        // after EOF waits (without reaping) for the child to exit, so the
        // monitor below can block until something happens.
        let (events, inbox) = mpsc::channel();
        let stdout_thread = child.stdout.take().map(|stdout| {
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    let event = match protocol::parse(&line) {
                        Some(Frame::Heartbeat) => Event::Beat(WallSpan::begin()),
                        Some(frame) => Event::Final(frame),
                        None => continue,
                    };
                    let _ = events.send(event);
                }
                let _ = limits::wait_exited(pid);
                let _ = events.send(Event::Exited);
            })
        });
        let stderr_thread = child.stderr.take().map(|mut stderr| {
            std::thread::spawn(move || {
                let mut tail = Vec::new();
                let mut buf = [0u8; 1024];
                while let Ok(n) = stderr.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    tail.extend_from_slice(&buf[..n]);
                    if tail.len() > STDERR_TAIL_BYTES {
                        let excess = tail.len() - STDERR_TAIL_BYTES;
                        tail.drain(..excess);
                    }
                }
                tail
            })
        });

        let timeout = self.policy.heartbeat_timeout();
        let mut kill_reason: Option<KillReason> = None;
        let mut last_beat: Option<WallSpan> = None;
        let mut heartbeats = 0u64;
        let mut final_frame: Option<Frame> = None;
        let ages = |last_beat: Option<WallSpan>| {
            let since_spawn = spawned_at.elapsed();
            (
                since_spawn,
                last_beat.map_or(since_spawn, |beat| beat.elapsed()),
            )
        };
        loop {
            // Once the child is killed no watchdog is armed: block until
            // it has exited.
            let (deadline_ms, heartbeat_timeout) = match kill_reason {
                None => (self.deadline_ms, Some(timeout)),
                Some(_) => (None, None),
            };
            let (since_spawn, since_last_beat) = ages(last_beat);
            let event =
                match next_wake(since_spawn, since_last_beat, deadline_ms, heartbeat_timeout) {
                    Some(wait) => inbox.recv_timeout(wait),
                    None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
                };
            match event {
                Ok(Event::Beat(at)) => {
                    last_beat = Some(at);
                    heartbeats += 1;
                }
                Ok(Event::Final(frame)) => {
                    final_frame.get_or_insert(frame);
                }
                Ok(Event::Exited) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    let (since_spawn, since_last_beat) = ages(last_beat);
                    kill_reason = overdue(since_spawn, since_last_beat, self.deadline_ms, timeout);
                    if kill_reason.is_some() {
                        // Nothing reaps the child before `limits::reap`
                        // below, so this cannot signal a reused pid.
                        let _ = child.kill();
                    }
                }
            }
        }
        let reaped = limits::reap(pid).ok();
        let wall_ms = spawned_at.elapsed().as_millis() as u64;

        if let Some(handle) = stdout_thread {
            let _ = handle.join();
        }
        let stderr_tail = stderr_thread
            .and_then(|handle| handle.join().ok())
            .unwrap_or_default();
        let stderr_tail = String::from_utf8_lossy(&stderr_tail).into_owned();

        let (exit_code, signal) = match &reaped {
            Some(reaped) => (reaped.status.code(), status_signal(&reaped.status)),
            None => (None, None),
        };
        let last_heartbeat_ms = last_beat.map(|beat| beat.since(&spawned_at).as_millis() as u64);

        let outcome = classify(kill_reason, exit_code, signal, final_frame, &stderr_tail);
        ChildReport {
            outcome,
            exit_code,
            signal,
            last_heartbeat_ms,
            heartbeats,
            peak_rss_bytes: reaped.map(|reaped| reaped.peak_rss_bytes),
            wall_ms,
            stderr_tail,
        }
    }
}

/// Why the parent decided to kill a child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillReason {
    Deadline { budget_ms: u64 },
    Heartbeat { silent_ms: u64 },
}

/// What the stdout reader thread tells the monitor.
enum Event {
    /// A heartbeat line arrived at this instant.
    Beat(WallSpan),
    /// A final (non-heartbeat) frame; only the first one counts.
    Final(Frame),
    /// Stdout hit EOF and the child has exited (still unreaped).
    Exited,
}

/// How long the monitor may block before a watchdog could fire: the
/// earlier of the cell deadline and the heartbeat-silence expiry, zero
/// when either has already passed. `since_last_beat` is measured from
/// spawn while no heartbeat has arrived. `None` means no watchdog is
/// armed, so the monitor blocks until the next event. Pure so the wake
/// schedule is unit-testable without a clock.
fn next_wake(
    since_spawn: Duration,
    since_last_beat: Duration,
    deadline_ms: Option<u64>,
    heartbeat_timeout: Option<Duration>,
) -> Option<Duration> {
    let deadline = deadline_ms.map(|ms| Duration::from_millis(ms).saturating_sub(since_spawn));
    let silence = heartbeat_timeout.map(|timeout| timeout.saturating_sub(since_last_beat));
    match (deadline, silence) {
        (Some(deadline), Some(silence)) => Some(deadline.min(silence)),
        (deadline, silence) => deadline.or(silence),
    }
}

/// The watchdog that has fired, if any; the deadline wins a tie.
fn overdue(
    since_spawn: Duration,
    since_last_beat: Duration,
    deadline_ms: Option<u64>,
    heartbeat_timeout: Duration,
) -> Option<KillReason> {
    if let Some(budget_ms) = deadline_ms {
        if since_spawn >= Duration::from_millis(budget_ms) {
            return Some(KillReason::Deadline { budget_ms });
        }
    }
    (since_last_beat >= heartbeat_timeout).then_some(KillReason::Heartbeat {
        silent_ms: since_last_beat.as_millis() as u64,
    })
}

/// Map everything the parent observed to a [`ChildOutcome`]. Pure so the
/// taxonomy is unit-testable without spawning processes.
fn classify(
    kill_reason: Option<KillReason>,
    exit_code: Option<i32>,
    signal: Option<i32>,
    final_frame: Option<Frame>,
    stderr_tail: &str,
) -> ChildOutcome {
    match kill_reason {
        Some(KillReason::Deadline { budget_ms }) => {
            return ChildOutcome::DeadlineExceeded { budget_ms }
        }
        Some(KillReason::Heartbeat { silent_ms }) => {
            return ChildOutcome::HeartbeatLost { silent_ms }
        }
        None => {}
    }
    match final_frame {
        Some(Frame::Ok(payload)) => return ChildOutcome::Completed(payload),
        Some(Frame::Err(message)) => return ChildOutcome::Failed(message),
        Some(Frame::Panic(message)) => return ChildOutcome::Panicked(message),
        Some(Frame::Heartbeat) | None => {}
    }
    if let Some(signal) = signal {
        if signal == SIGABRT && stderr_tail.contains(OOM_STDERR_MARKER) {
            return ChildOutcome::OomKilled;
        }
        return ChildOutcome::Signalled { signal };
    }
    match exit_code {
        Some(0) => ChildOutcome::Failed("worker exited without reporting a result".to_string()),
        Some(code) => ChildOutcome::Failed(format!(
            "worker exited with code {code} without reporting a result"
        )),
        None => ChildOutcome::Failed("worker vanished without an exit status".to_string()),
    }
}

#[cfg(unix)]
fn status_signal(status: &std::process::ExitStatus) -> Option<i32> {
    std::os::unix::process::ExitStatusExt::signal(status)
}

#[cfg(not(unix))]
fn status_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::SIGKILL;

    #[test]
    fn parent_kill_reasons_take_precedence() {
        let outcome = classify(
            Some(KillReason::Deadline { budget_ms: 30 }),
            None,
            Some(SIGKILL),
            Some(Frame::Ok("late".to_string())),
            "",
        );
        assert_eq!(outcome, ChildOutcome::DeadlineExceeded { budget_ms: 30 });

        let outcome = classify(
            Some(KillReason::Heartbeat { silent_ms: 900 }),
            None,
            Some(SIGKILL),
            None,
            "",
        );
        assert_eq!(outcome, ChildOutcome::HeartbeatLost { silent_ms: 900 });
    }

    #[test]
    fn protocol_frames_classify_before_exit_status() {
        let outcome = classify(None, Some(0), None, Some(Frame::Ok("payload".into())), "");
        assert_eq!(outcome, ChildOutcome::Completed("payload".to_string()));

        let outcome = classify(None, Some(0), None, Some(Frame::Err("flaky".into())), "");
        assert_eq!(outcome, ChildOutcome::Failed("flaky".to_string()));

        let outcome = classify(None, Some(0), None, Some(Frame::Panic("boom".into())), "");
        assert_eq!(outcome, ChildOutcome::Panicked("boom".to_string()));
    }

    #[test]
    fn signal_deaths_split_into_oom_and_signalled() {
        let outcome = classify(
            None,
            None,
            Some(SIGABRT),
            None,
            "memory allocation of 33554432 bytes failed",
        );
        assert_eq!(outcome, ChildOutcome::OomKilled);

        let outcome = classify(None, None, Some(SIGABRT), None, "");
        assert_eq!(outcome, ChildOutcome::Signalled { signal: SIGABRT });

        let outcome = classify(None, None, Some(SIGKILL), None, "");
        assert_eq!(outcome, ChildOutcome::Signalled { signal: SIGKILL });
    }

    fn ms(millis: u64) -> Duration {
        Duration::from_millis(millis)
    }

    #[test]
    fn the_monitor_wakes_at_the_deadline_when_only_the_deadline_is_armed() {
        assert_eq!(next_wake(ms(40), ms(5), Some(150), None), Some(ms(110)));
    }

    #[test]
    fn the_monitor_wakes_at_heartbeat_expiry_when_only_the_heartbeat_is_armed() {
        // Measured from the last beat, not from spawn.
        assert_eq!(
            next_wake(ms(900), ms(30), None, Some(ms(200))),
            Some(ms(170))
        );
    }

    #[test]
    fn the_earlier_of_deadline_and_heartbeat_expiry_wins() {
        assert_eq!(
            next_wake(ms(100), ms(10), Some(150), Some(ms(200))),
            Some(ms(50))
        );
        assert_eq!(
            next_wake(ms(100), ms(60), Some(1_000), Some(ms(200))),
            Some(ms(140))
        );
    }

    #[test]
    fn with_no_watchdog_armed_the_monitor_blocks_on_events() {
        assert_eq!(next_wake(ms(100), ms(100), None, None), None);
    }

    #[test]
    fn an_expired_budget_wakes_at_once() {
        assert_eq!(
            next_wake(ms(151), ms(5), Some(150), Some(ms(200))),
            Some(Duration::ZERO)
        );
        assert_eq!(
            next_wake(ms(900), ms(250), None, Some(ms(200))),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn overdue_fires_only_past_a_budget_and_prefers_the_deadline() {
        assert_eq!(overdue(ms(149), ms(199), Some(150), ms(200)), None);
        assert_eq!(
            overdue(ms(150), ms(250), Some(150), ms(200)),
            Some(KillReason::Deadline { budget_ms: 150 })
        );
        assert_eq!(
            overdue(ms(900), ms(230), None, ms(200)),
            Some(KillReason::Heartbeat { silent_ms: 230 })
        );
    }

    #[test]
    fn protocol_violations_are_transient_failures() {
        assert!(matches!(
            classify(None, Some(0), None, None, ""),
            ChildOutcome::Failed(_)
        ));
        assert!(matches!(
            classify(None, Some(3), None, None, ""),
            ChildOutcome::Failed(_)
        ));
    }
}
