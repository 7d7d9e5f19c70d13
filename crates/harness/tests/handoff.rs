//! End-to-end partition-tolerance guarantees against the real `runbms`
//! binary: a wrong-token attacher is cleanly rejected while the
//! authenticated run waits for its right-token standby, then completes;
//! and a four-worker sweep under a seeded drop+delay+dup+partition storm
//! survives its coordinator being SIGKILLed mid-sweep — the standby
//! takes over, the workers fail over, and the merged CSV is
//! byte-identical to a sequential run.

#![cfg(unix)]

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn runbms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_runbms"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chopin-handoff-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A loopback address with a port the OS just proved free. The listener
/// is dropped before use; nothing else binds in the gap because every
/// test picks its own port this way.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("probe port");
    format!("127.0.0.1:{}", listener.local_addr().expect("addr").port())
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("runbms spawns")
}

#[test]
fn wrong_token_attacher_is_rejected_and_the_sweep_completes() {
    if !chopin_sandbox::supported() {
        eprintln!("skipping: process isolation is unsupported on this platform");
        return;
    }
    let dir = scratch_dir("auth");
    let journal = dir.join("auth.journal");
    let journal_flag = journal.to_str().expect("utf-8 temp path").to_string();
    let addr = free_addr();

    // `--fleet-await-standby` holds every lease until a standby adopts,
    // so the sweep cannot finish before the test attaches: the
    // wrong-token attacher is refused first, then a right-token standby
    // releases the run.
    let coordinator = runbms()
        .args([
            "-b",
            "fop",
            "--quick",
            "--fleet",
            "1",
            "--fleet-bind",
            &addr,
            "--fleet-token",
            "secret",
            "--fleet-await-standby",
            "--journal",
            &journal_flag,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coordinator spawns");

    // Wait for the listener, then attach with the wrong token. The
    // probe connection sends nothing and is dropped; the coordinator
    // just reaps it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while std::net::TcpStream::connect(&addr).is_err() {
        assert!(
            std::time::Instant::now() < deadline,
            "coordinator never bound {addr}"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let attacher = run(runbms().args(["--fleet-connect", &addr, "--fleet-token", "wrong"]));
    let attach_err = String::from_utf8_lossy(&attacher.stderr);
    assert_eq!(
        attacher.status.code(),
        Some(2),
        "a rejected attacher must exit 2:\n{attach_err}"
    );
    assert!(
        attach_err.contains("rejected by the coordinator"),
        "the attacher must report the rejection, not retry forever:\n{attach_err}"
    );

    let standby = run(runbms().args([
        "-b",
        "fop",
        "--quick",
        "--fleet",
        "1",
        "--fleet-standby",
        &addr,
        "--fleet-token",
        "secret",
        "--journal",
        &journal_flag,
    ]));
    assert!(
        standby.status.success(),
        "the right-token standby must be admitted and see the run drain:\n{}",
        String::from_utf8_lossy(&standby.stderr)
    );

    let coordinator = coordinator.wait_with_output().expect("coordinator exits");
    let coord_err = String::from_utf8_lossy(&coordinator.stderr);
    assert!(
        coordinator.status.success(),
        "the authenticated sweep must complete:\n{coord_err}"
    );
    assert!(
        coord_err.contains("auth token mismatch"),
        "the coordinator must log the refused handshake:\n{coord_err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn storm_with_coordinator_handoff_matches_sequential_run() {
    if !chopin_sandbox::supported() {
        eprintln!("skipping: process isolation is unsupported on this platform");
        return;
    }
    let dir = scratch_dir("takeover");
    let journal = dir.join("handoff.journal");
    let journal_flag = journal.to_str().expect("utf-8 temp path").to_string();
    let addr = free_addr();

    // The sequential reference: one process-isolated cell at a time.
    let baseline = run(runbms().args(["-b", "fop", "--quick", "--isolation", "process"]));
    assert!(
        baseline.status.success(),
        "baseline run fails:\n{}",
        String::from_utf8_lossy(&baseline.stderr)
    );

    // The standby registers first; `--fleet-await-standby` below makes
    // the primary hold every lease until this adoption lands, so the
    // die-after hook cannot fire before a successor exists.
    let standby = runbms()
        .args([
            "-b",
            "fop",
            "--quick",
            "--fleet",
            "4",
            "--fleet-standby",
            &addr,
            "--journal",
            &journal_flag,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("standby spawns");

    // The primary: four workers under a full net storm, SIGKILLing
    // itself after two recorded completions.
    use std::os::unix::process::ExitStatusExt;
    let primary = run(runbms()
        .args([
            "-b",
            "fop",
            "--quick",
            "--fleet",
            "4",
            "--fleet-bind",
            &addr,
            "--fleet-await-standby",
            "--net-faults",
            "storm:7",
            "--journal",
            &journal_flag,
        ])
        .env("CHOPIN_FLEET_DIE_AFTER", "2"));
    assert_eq!(
        primary.status.signal(),
        Some(chopin_sandbox::limits::SIGKILL),
        "the primary must die by SIGKILL, got {:?}\n{}",
        primary.status,
        String::from_utf8_lossy(&primary.stderr)
    );

    let standby = standby.wait_with_output().expect("standby exits");
    let standby_err = String::from_utf8_lossy(&standby.stderr);
    assert!(
        standby.status.success(),
        "the standby must finish the sweep after taking over:\n{standby_err}"
    );
    assert!(
        standby_err.contains("taking over at epoch 2"),
        "the standby must log the takeover:\n{standby_err}"
    );
    assert_eq!(
        String::from_utf8_lossy(&standby.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "the standby's merged CSV must be byte-identical to the sequential run"
    );

    let takeover_log = dir.join("handoff.journal.takeover");
    let log = std::fs::read_to_string(&takeover_log)
        .unwrap_or_else(|e| panic!("takeover log {} unreadable: {e}", takeover_log.display()));
    assert!(
        log.starts_with("takeover epoch=2"),
        "the takeover log must record the hand-off: {log:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
