//! The fleet transport: crash-tolerant coordinator/worker sharding of
//! the sweep matrix over a line-framed local socket, with lease-based
//! reassignment and a deterministic journal merge.
//!
//! `--fleet N` shards the supervised sweep across `N` worker
//! *processes*. The coordinator compiles the same deterministic cell
//! list as the sequential supervisor and hands out leases to whichever
//! worker asks next; a worker that dies merely returns its leases to
//! the pool, and a crashed slot is respawned until its crash budget
//! ([`FleetConfig::max_worker_crashes`]) runs out. Every one of those
//! decisions is the pure [`Coordinator`]'s; this module is its driver:
//! it maps connections to worker ids, turns socket and reaper events
//! into [`Input`]s, carries out the [`Output`]s, and sleeps until the
//! coordinator's next wake-up.
//!
//! Every worker appends completed cells to its own fingerprinted
//! journal (`<base>.w<id>`), so no two processes ever contend on one
//! file. On `--resume` the coordinator absorbs the base journal *and*
//! every sibling worker journal, resolving duplicate completions (a
//! stolen lease finishing twice, a re-lease racing its original) by the
//! fixed `(attempt, worker)` tiebreak in [`chopin_fleet::CellMerge`].
//! Because cells are deterministic and results are assembled in
//! schedule order, the merged output is byte-identical to a sequential
//! `--isolation process` run — the property `artifact chaos --check
//! --workers` and the `fleet` integration test pin.
//!
//! The wire protocol ([`chopin_fleet::protocol`]) uses the same
//! `@field:value` line framing as the sandbox heartbeat pipe, over a
//! loopback TCP socket so external workers can attach with
//! `--fleet-connect ADDR` (satisfying rule R1202's appetite for more
//! workers without more local spawns).

use crate::cli::Args;
use crate::journal::{
    CellKey, CellProvenance, CellRecord, Journal, JournalEntry, QuarantineRecord,
};
use crate::lock;
use crate::sandbox::{
    parse_request, parse_response, render_request, render_response, run_cell_inline, status_signal,
    write_crash_reports, CellRequest, CrashReport,
};
use crate::supervisor::{
    cell_seed, panic_message, Cell, CellOutcome, QuarantineEntry, QuarantineReason, SuiteReport,
    SuperviseError,
};
use chopin_core::sweep::{SweepConfig, SweepFailure, SweepResult};
use chopin_faults::hard::splitmix64;
use chopin_faults::{parse_net_flag, FaultPlan, HardFaultKind, SupervisorPolicy, NET_PRESET_NAMES};
use chopin_fleet::coordinator::{HEARTBEAT_EVERY_MS, HEARTBEAT_TIMEOUT_MS, POLL_MS};
use chopin_fleet::lease::CellResolution;
use chopin_fleet::protocol;
use chopin_fleet::{
    parse_storm_flag, recover, Coordinator, FleetConfig, FleetFrame, Incarnation, Input,
    LeaseTable, Output, Row, WorkerStormPlan,
};
use chopin_obs::metrics::fleet_metrics;
use chopin_obs::MetricsRegistry;
use chopin_sandbox::clock::WallSpan;
use chopin_sandbox::limits::{die_by_signal, SIGKILL};
use chopin_workloads::WorkloadProfile;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Ceiling a worker applies to a coordinator-suggested wait.
const MAX_WORKER_WAIT_MS: u64 = 1_000;

/// Default coordinator bind address: an ephemeral loopback port.
const DEFAULT_FLEET_BIND: &str = "127.0.0.1:0";

/// Worker-side read timeout: after this much silence the worker re-sends
/// its unacknowledged reply (if any) and another `Next` — the resend leg
/// of the retry/timeout/backoff wire semantics that makes dropped frames
/// converge instead of wedging.
const WORKER_RESEND_MS: u64 = 2_000;

/// Worker-side silence ceiling: past this the connection is presumed
/// lost (coordinator dead or partitioned away) and the worker reconnects.
const WORKER_SILENCE_MS: u64 = 12_000;

/// First reconnect backoff step; doubles per attempt (full exponential).
const RECONNECT_BASE_MS: u64 = 100;

/// Reconnect backoff ceiling.
const RECONNECT_MAX_MS: u64 = 3_200;

/// Reconnect attempts before a worker gives up on ever seeing a
/// coordinator again. Its journal shard keeps everything it finished.
const MAX_RECONNECT_ATTEMPTS: u32 = 8;

/// How long a standby keeps retrying its initial connection to the
/// primary (the primary may still be compiling its cell list).
const STANDBY_CONNECT_ATTEMPTS: u32 = 40;

/// Backoff between standby registration attempts.
const STANDBY_CONNECT_BACKOFF_MS: u64 = 250;

/// After a clean `Drain`, how long the coordinator waits for its local
/// workers to exit. It covers a worker in reconnect backoff (capped at
/// [`RECONNECT_MAX_MS`]), which is drained when it reconnects.
const WORKER_EXIT_GRACE_MS: u64 = 5_000;

/// After a clean `Drain`, how long the standby waits for the primary's
/// assembly writes to land in the base journal before giving up.
const STANDBY_DRAIN_GRACE_MS: u64 = 5_000;

// ---------------------------------------------------------------------
// Flag parsing and process entry points.
// ---------------------------------------------------------------------

/// Parse the fleet flag family into a [`FleetConfig`]: `--fleet N`
/// (worker count), `--lease-deadline MS` (lease expiry), `--fleet-storm
/// KIND[:SEED[:STRIDE]]` (the worker-kill storm), `--fleet-bind
/// HOST:PORT` (routable listener address), `--fleet-token TOKEN`
/// (per-run admission token), `--net-faults PRESET[:SEED]` (the seeded
/// network-fault shim), `--fleet-standby ADDR` (run as the standby
/// coordinator for the primary at `ADDR`) and `--fleet-await-standby`
/// (the primary issues no leases until a standby has adopted — the
/// armed-failover drill mode).
///
/// # Errors
///
/// A human-readable message when a value is unparsable, a preset is
/// unknown, validation fails, or a satellite flag appears without
/// `--fleet` itself.
pub fn fleet_config_from_args(args: &Args) -> Result<Option<FleetConfig>, String> {
    if !args.has("fleet") {
        for flag in [
            "lease-deadline",
            "fleet-storm",
            "fleet-bind",
            "fleet-token",
            "net-faults",
            "fleet-standby",
            "fleet-await-standby",
        ] {
            if args.has(flag) {
                return Err(format!("--{flag} needs --fleet N"));
            }
        }
        return Ok(None);
    }
    let workers: u32 = args.get_or("fleet", 0u32).map_err(|e| e.to_string())?;
    let mut config = FleetConfig::new(workers);
    if args.has("lease-deadline") {
        let ms: u64 = args
            .get_or("lease-deadline", 0u64)
            .map_err(|e| e.to_string())?;
        config.plan.lease_deadline_ms = Some(ms);
    }
    if args.has("fleet-storm") {
        let flag = args
            .value("fleet-storm")
            .ok_or("--fleet-storm needs a preset (kill or abort)")?;
        config.storm = Some(parse_storm_flag(flag)?);
    }
    if args.has("fleet-bind") {
        let addr = args
            .value("fleet-bind")
            .ok_or("--fleet-bind needs HOST:PORT (e.g. 0.0.0.0:7400)")?;
        config.bind = Some(addr.to_string());
    }
    if args.has("fleet-token") {
        let token = args
            .value("fleet-token")
            .ok_or("--fleet-token needs a token value")?;
        config.token = Some(token.to_string());
    }
    if args.has("net-faults") {
        let flag = args.value("net-faults").ok_or_else(|| {
            format!(
                "--net-faults needs a preset ({}), optionally PRESET:SEED",
                NET_PRESET_NAMES.join(", ")
            )
        })?;
        config.net = Some(parse_net_flag(flag)?);
    }
    if args.has("fleet-standby") {
        let addr = args
            .value("fleet-standby")
            .ok_or("--fleet-standby needs the primary coordinator's address")?;
        config.standby_of = Some(addr.to_string());
    }
    config.await_standby = args.has("fleet-await-standby");
    config.validate().map_err(|e| e.to_string())?;
    Ok(Some(config))
}

/// Run this process as an externally-attached fleet worker when
/// `--fleet-connect ADDR` is on the command line, returning the exit
/// code to use; `None` means the flag is absent and the binary should
/// proceed normally. `--fleet-storm` composes, so an external worker
/// can be a storm victim too.
pub fn maybe_connect(args: &Args) -> Option<i32> {
    if !args.has("fleet-connect") {
        return None;
    }
    let Some(addr) = args.value("fleet-connect") else {
        eprintln!("error: --fleet-connect needs the coordinator address it printed at startup");
        return Some(2);
    };
    let storm = match args.value("fleet-storm") {
        None => None,
        Some(flag) => match parse_storm_flag(flag) {
            Ok(storm) => Some(storm),
            Err(e) => {
                eprintln!("error: {e}");
                return Some(2);
            }
        },
    };
    let token = args
        .value("fleet-token")
        .map(str::to_string)
        .or_else(|| std::env::var(protocol::ENV_FLEET_TOKEN).ok());
    Some(run_worker(addr, None, storm, token))
}

/// Enter the fleet worker loop and exit when this process was spawned
/// as a fleet worker (`CHOPIN_FLEET_WORKER` in the environment);
/// returns immediately otherwise. Called by
/// [`worker_entry`](crate::sandbox::worker_entry) before the sandbox
/// worker hook, so every harness binary can serve as a fleet worker.
pub(crate) fn maybe_fleet_worker() {
    if std::env::var_os(protocol::ENV_FLEET_WORKER).is_none() {
        return;
    }
    let code = fleet_worker_env();
    // srclint:allow(R1006, reason = "a fleet worker owns the whole process; returning would fall through into the binary's own main")
    std::process::exit(code);
}

/// Resolve the worker's environment (address, pre-assigned id, storm)
/// and run the worker loop, returning the process exit code.
fn fleet_worker_env() -> i32 {
    let Ok(addr) = std::env::var(protocol::ENV_FLEET_ADDR) else {
        eprintln!(
            "error: {} is set but {} is not",
            protocol::ENV_FLEET_WORKER,
            protocol::ENV_FLEET_ADDR
        );
        return 2;
    };
    let id = std::env::var(protocol::ENV_FLEET_WORKER_ID)
        .ok()
        .and_then(|v| v.parse().ok());
    let storm = match std::env::var(protocol::ENV_FLEET_STORM) {
        Err(_) => None,
        Ok(flag) => match parse_storm_flag(&flag) {
            Ok(storm) => Some(storm),
            Err(e) => {
                eprintln!("error: bad {}: {e}", protocol::ENV_FLEET_STORM);
                return 2;
            }
        },
    };
    let token = std::env::var(protocol::ENV_FLEET_TOKEN).ok();
    run_worker(&addr, id, storm, token)
}

// ---------------------------------------------------------------------
// Worker journals.
// ---------------------------------------------------------------------

/// The per-worker journal path: `<base>.w<id>` next to the base
/// journal, so no two processes ever contend on one file.
pub(crate) fn worker_journal_path(base: &Path, worker: u64) -> PathBuf {
    match base.file_name() {
        Some(name) => base.with_file_name(format!("{}.w{worker}", name.to_string_lossy())),
        None => base.with_extension(format!("w{worker}")),
    }
}

/// Discover every sibling worker journal of `base` (`<base>.w<digits>`
/// in the same directory), sorted by worker id so absorption order is
/// deterministic regardless of directory iteration order.
fn sibling_worker_journals(base: &Path) -> Vec<PathBuf> {
    let Some(name) = base.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Vec::new();
    };
    let dir = base
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let prefix = format!("{name}.w");
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let file_name = entry.file_name().to_string_lossy().into_owned();
        if let Some(rest) = file_name.strip_prefix(&prefix) {
            if let Ok(id) = rest.parse::<u64>() {
                found.push((id, entry.path()));
            }
        }
    }
    found.sort_unstable();
    found.into_iter().map(|(_, path)| path).collect()
}

fn key_of(cell: &Cell) -> CellKey {
    CellKey {
        benchmark: cell.benchmark.clone(),
        collector: cell.collector,
        heap_factor: cell.heap_factor,
    }
}

/// What [`absorb_recovered`] found on disk.
#[derive(Debug, Default, PartialEq, Eq)]
struct AbsorbStats {
    /// Cells pre-resolved from recovered journal entries.
    recovered: usize,
    /// Duplicate completions folded away by the merge tiebreak.
    conflicts: u64,
    /// Sibling shards rejected for carrying a foreign fingerprint.
    foreign_shards: u64,
}

/// Absorb every recovered completion — from the base journal and every
/// fingerprint-matching sibling worker journal — into the lease table,
/// resolving duplicates with the deterministic `(attempt, worker)`
/// tiebreak over the *rendered response bytes* (the same currency the
/// live merge uses, so equal-provenance duplicates tiebreak on payload
/// identically in both paths). Winners missing from the base journal
/// are persisted into it *now*, before any worker spawns: workers
/// truncate their own `.w<id>` files on startup, so a second
/// coordinator crash must not be able to lose cells recovered from the
/// first.
///
/// Sibling shards whose fingerprint does not match the sweep are
/// **rejected, loudly**: they are counted, named on stderr and surfaced
/// as `fleet.shards.rejected` — a stale shard silently vanishing would
/// be indistinguishable from data loss.
fn absorb_recovered(
    table: &mut LeaseTable,
    cells: &[(usize, Cell)],
    journal: &mut Option<Journal>,
    journal_path: Option<&Path>,
    fingerprint: u64,
) -> AbsorbStats {
    let mut foreign_shards = 0;
    let mut rows: Vec<Row> = Vec::new();
    let collect = |rows: &mut Vec<Row>, entries: &[JournalEntry]| {
        for entry in entries {
            if let Some(cell) = cells
                .iter()
                .position(|(_, cell)| entry.key.matches(&key_of(cell)))
            {
                let (attempt, worker) = entry.provenance.map_or((1, 0), |p| (p.attempt, p.worker));
                let payload = render_response(&CellOutcome {
                    samples: entry.record.samples.clone(),
                    infeasible: entry.record.infeasible.clone(),
                });
                rows.push(Row {
                    cell,
                    attempt,
                    worker,
                    payload,
                });
            }
        }
    };
    if let Some(j) = journal.as_ref() {
        collect(&mut rows, j.entries());
    }
    if let Some(base) = journal_path {
        for worker_path in sibling_worker_journals(base) {
            // A shard caught mid-append loads without its torn last line;
            // only a shard that is corrupt before its tail fails here.
            let worker_journal = match Journal::load(&worker_path) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!(
                        "fleet: skipping unreadable worker journal {}: {e}",
                        worker_path.display()
                    );
                    continue;
                }
            };
            if worker_journal.fingerprint() != fingerprint {
                foreign_shards += 1;
                eprintln!(
                    "fleet: rejecting worker journal {} (fingerprint {:016x}, sweep is {:016x})",
                    worker_path.display(),
                    worker_journal.fingerprint(),
                    fingerprint,
                );
                continue;
            }
            collect(&mut rows, worker_journal.entries());
        }
    }
    let recovery = recover(table, rows, |cell| persisted(journal, &cells[cell].1));
    persist(journal, cells, recovery.winners);
    AbsorbStats {
        recovered: recovery.recovered,
        conflicts: recovery.conflicts,
        foreign_shards,
    }
}

/// Whether the base journal already holds `cell` (or there is none).
fn persisted(journal: &Option<Journal>, cell: &Cell) -> bool {
    journal
        .as_ref()
        .is_none_or(|j| j.lookup(&key_of(cell)).is_some())
}

/// Append recovered or sealed winners to the base journal.
fn persist(journal: &mut Option<Journal>, cells: &[(usize, Cell)], winners: Vec<Row>) {
    let Some(j) = journal.as_mut() else { return };
    for row in winners {
        // Self-rendered payloads always parse.
        if let Ok(outcome) = parse_response(&row.payload) {
            let _ = j.record(JournalEntry {
                key: key_of(&cells[row.cell].1),
                record: CellRecord {
                    samples: outcome.samples,
                    infeasible: outcome.infeasible,
                },
                provenance: Some(CellProvenance {
                    attempt: row.attempt,
                    worker: row.worker,
                }),
            });
        }
    }
}

// ---------------------------------------------------------------------
// The coordinator.
// ---------------------------------------------------------------------

/// Everything the supervisor hands the coordinator for one fleet run.
pub(crate) struct FleetRun<'a> {
    pub(crate) config: FleetConfig,
    pub(crate) policy: SupervisorPolicy,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) profiles: &'a [WorkloadProfile],
    pub(crate) sweep: &'a SweepConfig,
    pub(crate) cells: Vec<(usize, Cell)>,
    pub(crate) journal: Option<Journal>,
    pub(crate) journal_path: Option<PathBuf>,
    pub(crate) fingerprint: u64,
    pub(crate) crash_reports_path: Option<PathBuf>,
}

/// Run the sweep as a fleet: absorb recovered journals, drive the
/// worker pool until the lease table drains, then assemble the report
/// in schedule order — byte-identical to the sequential supervisor.
///
/// With `--fleet-standby ADDR` this process is not the primary at all:
/// it routes into [`run_standby`], registering with the primary and
/// taking over its lease table if the primary goes silent.
pub(crate) fn coordinate(mut run: FleetRun<'_>) -> Result<SuiteReport, SuperviseError> {
    run.config
        .validate()
        .map_err(|e| SuperviseError::Isolation(format!("fleet configuration: {e}")))?;
    if run.config.standby_of.is_some() {
        return run_standby(run);
    }
    let mut journal = run.journal.take();
    let mut metrics = MetricsRegistry::new();
    let (mut table, _) = run.recover(&mut journal, &mut metrics);
    let mut crash_reports = Vec::new();
    if !table.is_done() {
        let (listener, addr) = bind(&run.config, "fleet")?;
        (table, crash_reports) = run.serve(table, listener, addr, 1, &mut metrics)?;
    }
    Ok(run.assemble(table, &mut journal, metrics, crash_reports))
}

/// Bind the coordinator's listener (`--fleet-bind`, or an ephemeral
/// loopback port), returning it with its resolved address.
fn bind(config: &FleetConfig, who: &str) -> Result<(TcpListener, String), SuperviseError> {
    let bind = config.bind.as_deref().unwrap_or(DEFAULT_FLEET_BIND);
    let listener = TcpListener::bind(bind).map_err(|e| {
        SuperviseError::Isolation(format!("{who} cannot bind its socket at {bind}: {e}"))
    })?;
    let addr = listener
        .local_addr()
        .map_err(|e| SuperviseError::Isolation(format!("{who} cannot resolve its socket: {e}")))?;
    Ok((listener, addr.to_string()))
}

/// The successor's takeover log: `<base>.takeover` beside the base
/// journal, recording the hand-off so operators (and the CI chaos gate)
/// can assert a takeover actually happened and what it recovered.
pub(crate) fn takeover_log_path(base: &Path) -> PathBuf {
    match base.file_name() {
        Some(name) => base.with_file_name(format!("{}.takeover", name.to_string_lossy())),
        None => base.with_extension("takeover"),
    }
}

/// Run as a standby coordinator: register with the primary, watch its
/// heartbeat, and — if the primary goes silent — take over the lease
/// table reloaded from the merged journals, serving the next epoch
/// without restarting workers (they reconnect to the address the
/// primary advertised on their behalf).
fn run_standby(run: FleetRun<'_>) -> Result<SuiteReport, SuperviseError> {
    let config = &run.config;
    let fingerprint = run.fingerprint;
    let primary = config.standby_of.clone().unwrap_or_default();
    let Some(journal_path) = run.journal_path.clone() else {
        return Err(SuperviseError::Isolation(
            "--fleet-standby needs --journal pointing at the primary's journal \
             (rule R1405): the successor reloads the lease table from it"
                .to_string(),
        ));
    };

    // Bind the successor's listener *before* registering: reconnecting
    // workers land in the OS accept backlog while the takeover absorbs
    // the journals, so no reconnect attempt is lost to a closed port.
    let (listener, my_addr) = bind(config, "standby")?;

    // Register with retries — the standby is usually started alongside
    // the primary, possibly before it listens.
    let mut registered = None;
    for _ in 0..STANDBY_CONNECT_ATTEMPTS {
        match TcpStream::connect(&primary) {
            Ok(s) => {
                registered = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(STANDBY_CONNECT_BACKOFF_MS)),
        }
    }
    let Some(mut stream) = registered else {
        return Err(SuperviseError::Isolation(format!(
            "standby cannot reach the primary coordinator at {primary}"
        )));
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(POLL_MS)));
    let read_half = stream.try_clone().map_err(|e| {
        SuperviseError::Isolation(format!("standby cannot clone its primary socket: {e}"))
    })?;
    let mut reader = LineReader::new(read_half);
    let send = |stream: &mut TcpStream, frame: &FleetFrame| {
        let line = format!("{}\n", protocol::render(frame));
        stream.write_all(line.as_bytes()).is_ok()
    };
    if !send(
        &mut stream,
        &FleetFrame::Hello {
            worker: None,
            token: config.token.clone(),
        },
    ) {
        return Err(SuperviseError::Isolation(
            "standby lost the primary connection during registration".to_string(),
        ));
    }

    let span = WallSpan::begin();
    let now_ms = |span: &WallSpan| span.elapsed_ms() as u64;
    // Wait for admission and learn the primary's epoch.
    let mut epoch = 0u32;
    let mut admitted = false;
    while !admitted {
        if now_ms(&span) > HEARTBEAT_TIMEOUT_MS {
            return Err(SuperviseError::Isolation(format!(
                "the primary at {primary} never admitted this standby"
            )));
        }
        match reader.next_line() {
            LineEvent::TimedOut => {}
            LineEvent::Eof => {
                return Err(SuperviseError::Isolation(format!(
                    "the primary at {primary} hung up before admitting this standby"
                )));
            }
            LineEvent::Line(line) => match protocol::parse(&line) {
                Some(FleetFrame::Welcome { epoch: e, .. }) => {
                    epoch = e;
                    admitted = true;
                }
                Some(FleetFrame::Reject { reason }) => {
                    return Err(SuperviseError::Isolation(format!(
                        "the primary at {primary} rejected this standby: {reason}"
                    )));
                }
                _ => {}
            },
        }
    }
    if !send(
        &mut stream,
        &FleetFrame::Adopt {
            addr: my_addr.clone(),
            fingerprint: format!("{fingerprint:016x}"),
        },
    ) {
        return Err(SuperviseError::Isolation(
            "standby lost the primary connection while adopting".to_string(),
        ));
    }
    eprintln!(
        "fleet: standby registered with primary {primary} (epoch {epoch}), \
         watching heartbeats; successor address is {my_addr}"
    );

    // Watch the primary's heartbeat. Silence past the reaper timeout or
    // a hangup triggers takeover; a Drain means the run finished and we
    // only reconstruct the report. A Reject here means the adoption
    // itself was refused (fingerprint mismatch).
    let mut last_beat = now_ms(&span);
    let mut drained = false;
    loop {
        let now = now_ms(&span);
        match reader.next_line() {
            LineEvent::TimedOut => {
                if now.saturating_sub(last_beat) > HEARTBEAT_TIMEOUT_MS {
                    break;
                }
            }
            LineEvent::Eof => break,
            LineEvent::Line(line) => match protocol::parse(&line) {
                Some(FleetFrame::Beat { .. }) => last_beat = now,
                Some(FleetFrame::Drain) => {
                    drained = true;
                    break;
                }
                Some(FleetFrame::Reject { reason }) => {
                    return Err(SuperviseError::Isolation(format!(
                        "the primary at {primary} rejected this standby: {reason}"
                    )));
                }
                _ => {}
            },
        }
    }
    let _ = stream.shutdown(Shutdown::Both);

    if drained {
        // The primary finished the sweep itself. Reconstruct the same
        // report from the merged journals; grace-loop briefly in case
        // the base journal's last append is still landing.
        let grace = WallSpan::begin();
        loop {
            let mut journal = Journal::load(&journal_path).ok();
            let mut metrics = MetricsRegistry::new();
            let (table, _) = run.recover(&mut journal, &mut metrics);
            if table.is_done() {
                eprintln!("fleet: primary drained cleanly; standby reconstructed the report");
                return Ok(run.assemble(table, &mut journal, metrics, Vec::new()));
            }
            if grace.elapsed_ms() as u64 > STANDBY_DRAIN_GRACE_MS {
                return Err(SuperviseError::Isolation(
                    "the primary drained but the merged journals do not cover the \
                     matrix; rerun with --resume"
                        .to_string(),
                ));
            }
            std::thread::sleep(Duration::from_millis(POLL_MS));
        }
    }

    // Takeover: the primary is gone. Absorb everything the fleet has
    // committed to disk and serve the remainder at the next epoch.
    eprintln!(
        "fleet: primary at {primary} went silent; taking over at epoch {}",
        epoch + 1
    );
    let mut metrics = MetricsRegistry::new();
    metrics.inc(fleet_metrics::TAKEOVERS, 1);
    let mut journal = match Journal::load(&journal_path) {
        Ok(j) => {
            if j.fingerprint() != fingerprint {
                return Err(SuperviseError::JournalMismatch {
                    expected: fingerprint,
                    found: j.fingerprint(),
                });
            }
            Some(j)
        }
        Err(_) => {
            Some(Journal::create(&journal_path, fingerprint).map_err(SuperviseError::Journal)?)
        }
    };
    let (mut table, absorbed) = run.recover(&mut journal, &mut metrics);
    let _ = std::fs::write(
        takeover_log_path(&journal_path),
        format!(
            "takeover epoch={} primary={primary} addr={my_addr}\n\
             recovered={} conflicts={} foreign_shards={}\n",
            epoch + 1,
            absorbed.recovered,
            absorbed.conflicts,
            absorbed.foreign_shards,
        ),
    );

    let mut crash_reports = Vec::new();
    if !table.is_done() {
        (table, crash_reports) = run.serve(table, listener, my_addr, epoch + 1, &mut metrics)?;
    }
    Ok(run.assemble(table, &mut journal, metrics, crash_reports))
}

impl FleetRun<'_> {
    /// A fresh lease table over the schedule holding every completion
    /// [`absorb_recovered`] finds on disk, with the recovery counted in
    /// `metrics`.
    fn recover(
        &self,
        journal: &mut Option<Journal>,
        metrics: &mut MetricsRegistry,
    ) -> (LeaseTable, AbsorbStats) {
        let seeds = self.cells.iter().map(|(_, cell)| cell_seed(cell)).collect();
        let mut table = LeaseTable::new(seeds, self.policy, self.config.plan.deadline_ms());
        let path = self.journal_path.as_deref();
        let absorbed = absorb_recovered(&mut table, &self.cells, journal, path, self.fingerprint);
        for (name, value) in [
            ("supervisor.cells", self.cells.len() as u64),
            ("supervisor.cells.resumed", absorbed.recovered as u64),
            (fleet_metrics::CELLS_RECOVERED, absorbed.recovered as u64),
            (fleet_metrics::MERGE_CONFLICTS, absorbed.conflicts),
            (fleet_metrics::SHARDS_REJECTED, absorbed.foreign_shards),
        ] {
            metrics.inc(name, value);
        }
        (table, absorbed)
    }

    /// Assemble the final report from a drained lease table, in
    /// schedule order — byte-identical to the sequential supervisor.
    /// Shared by the primary and the standby's takeover and
    /// reconstruction paths.
    fn assemble(
        &self,
        mut table: LeaseTable,
        journal: &mut Option<Journal>,
        mut metrics: MetricsRegistry,
        crash_reports: Vec<CrashReport>,
    ) -> SuiteReport {
        let cells = &self.cells;
        // Seal the base journal with every winner it does not hold yet.
        let seal = recover(&mut table, Vec::new(), |cell| {
            persisted(journal, &cells[cell].1)
        });
        persist(journal, cells, seal.winners);
        // Assembly: schedule order, exactly like the sequential supervisor.
        let mut results: Vec<SweepResult> = self
            .profiles
            .iter()
            .map(|p| SweepResult {
                benchmark: p.name.to_string(),
                samples: Vec::new(),
                failures: Vec::new(),
            })
            .collect();
        let mut quarantined = Vec::new();
        for (resolution, (pi, cell)) in table.resolutions().into_iter().zip(cells) {
            match resolution {
                CellResolution::Completed {
                    attempt, payload, ..
                } => {
                    let outcome = match parse_response(&payload) {
                        Ok(outcome) => outcome,
                        Err(e) => {
                            // Self-rendered payloads always parse; only a
                            // corrupted recovered journal line lands here.
                            metrics.inc("supervisor.cells.quarantined", 1);
                            quarantined.push(QuarantineEntry {
                                cell: cell.clone(),
                                attempts: attempt,
                                reason: QuarantineReason::Errored(format!(
                                    "merged payload unreadable: {e}"
                                )),
                            });
                            continue;
                        }
                    };
                    metrics.inc("supervisor.cells.completed", 1);
                    if outcome.infeasible.is_some() {
                        metrics.inc("supervisor.cells.infeasible", 1);
                    }
                    results[*pi].samples.extend(outcome.samples);
                    if let Some(reason) = outcome.infeasible {
                        results[*pi].failures.push(SweepFailure {
                            collector: cell.collector,
                            heap_factor: cell.heap_factor,
                            reason,
                        });
                    }
                }
                CellResolution::Quarantined { reason } => {
                    metrics.inc("supervisor.cells.quarantined", 1);
                    let entry = QuarantineEntry {
                        cell: cell.clone(),
                        attempts: 1 + self.policy.max_retries,
                        reason: parse_reason(&reason),
                    };
                    if let Some(j) = journal.as_mut() {
                        let _ = j.record_quarantine(QuarantineRecord {
                            key: key_of(cell),
                            attempts: entry.attempts,
                            reason: entry.reason.clone(),
                        });
                    }
                    quarantined.push(entry);
                }
                CellResolution::Unresolved => {
                    // Unreachable in practice: the transport only returns
                    // once the table drains, and errors propagate above.
                    metrics.inc("supervisor.cells.quarantined", 1);
                    quarantined.push(QuarantineEntry {
                        cell: cell.clone(),
                        attempts: 0,
                        reason: QuarantineReason::Errored(
                            "unresolved: the coordinator stopped before this cell".to_string(),
                        ),
                    });
                }
            }
        }

        if let Some(path) = &self.crash_reports_path {
            if let Err(e) = write_crash_reports(path, &crash_reports) {
                eprintln!(
                    "warning: could not write crash reports to {}: {e}",
                    path.display()
                );
            }
        }

        SuiteReport {
            results,
            quarantined,
            crash_reports,
            metrics,
        }
    }
}

/// Map a worker-reported cell failure reason back into the quarantine
/// taxonomy: workers render `panicked: <msg>` / `errored: <msg>`.
fn parse_reason(reason: &str) -> QuarantineReason {
    if let Some(msg) = reason.strip_prefix("panicked: ") {
        QuarantineReason::Panicked(msg.to_string())
    } else if let Some(msg) = reason.strip_prefix("errored: ") {
        QuarantineReason::Errored(msg.to_string())
    } else {
        QuarantineReason::Errored(reason.to_string())
    }
}

/// An event delivered to the coordinator loop by its reader, acceptor
/// and reaper threads. Connections are identified by a local counter
/// until the coordinator binds them to a worker id.
enum Event {
    /// A connection opened; its write half rides along, so the
    /// coordinator loop owns all outbound traffic.
    Connected { conn: u64, stream: TcpStream },
    /// A frame arrived on a connection.
    Frame { conn: u64, frame: FleetFrame },
    /// The connection closed or errored.
    Eof { conn: u64 },
    /// A locally-spawned worker process exited (or failed to spawn):
    /// an [`Input::ChildExit`].
    Exited(Input),
}

/// Spawns local worker processes (this same executable, marked via the
/// environment) and reaps them onto the event channel.
struct Spawner {
    exe: PathBuf,
    addr: String,
    storm_env: Option<String>,
    token_env: Option<String>,
    tx: mpsc::Sender<Event>,
}

impl Spawner {
    /// Spawn worker `worker`; a spawn that fails is reported as a
    /// crashed child, so the slot's crash budget decides what follows.
    fn spawn(&self, slot: usize, worker: u64) {
        let mut cmd = Command::new(&self.exe);
        cmd.env(protocol::ENV_FLEET_WORKER, "1")
            .env(protocol::ENV_FLEET_ADDR, &self.addr)
            .env(protocol::ENV_FLEET_WORKER_ID, worker.to_string())
            // The die-after hook targets the *coordinator*; a worker
            // inheriting it would re-enter coordination on exec.
            .env_remove(protocol::ENV_FLEET_DIE_AFTER)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(storm) = &self.storm_env {
            cmd.env(protocol::ENV_FLEET_STORM, storm);
        }
        if let Some(token) = &self.token_env {
            cmd.env(protocol::ENV_FLEET_TOKEN, token);
        }
        let tx = self.tx.clone();
        match cmd.spawn() {
            Ok(mut child) => {
                std::thread::spawn(move || {
                    let (clean, signal) = match child.wait() {
                        Ok(status) => (status.success(), status_signal(&status)),
                        Err(_) => (false, None),
                    };
                    let _ = tx.send(Event::Exited(Input::ChildExit {
                        worker,
                        clean,
                        signal,
                    }));
                });
            }
            Err(e) => {
                eprintln!("fleet: could not spawn worker {worker} for slot {slot}: {e}");
                let _ = tx.send(Event::Exited(Input::ChildExit {
                    worker,
                    clean: false,
                    signal: None,
                }));
            }
        }
    }
}

/// Re-render a storm plan into the env grammar workers parse
/// (`KIND:SEED:STRIDE`, same as the `--fleet-storm` flag).
fn render_storm(storm: &WorkerStormPlan) -> String {
    format!(
        "{}:{}:{}",
        storm.plan.kind.label(),
        storm.plan.seed,
        storm.plan.stride
    )
}

fn accept_loop(listener: TcpListener, tx: mpsc::Sender<Event>, stop: Arc<AtomicBool>) {
    let mut next_conn: u64 = 1;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn = next_conn;
        next_conn += 1;
        let tx = tx.clone();
        std::thread::spawn(move || reader_loop(conn, stream, tx));
    }
}

fn reader_loop(conn: u64, stream: TcpStream, tx: mpsc::Sender<Event>) {
    let _ = stream.set_nodelay(true);
    let event = match stream.try_clone() {
        Ok(write_half) => Event::Connected {
            conn,
            stream: write_half,
        },
        Err(_) => Event::Eof { conn },
    };
    let connected = matches!(event, Event::Connected { .. });
    if tx.send(event).is_err() || !connected {
        return;
    }
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        let Some(frame) = protocol::parse(&line) else {
            continue;
        };
        if tx.send(Event::Frame { conn, frame }).is_err() {
            return;
        }
    }
    let _ = tx.send(Event::Eof { conn });
}

/// Mint a coordinator incarnation's `coord` nonce. Every input is
/// diffused through `splitmix64` *before* it is combined with the next:
/// a raw `pid ^ fingerprint ^ epoch` XOR is not injective across
/// incarnations. A standby spawned just before its primary gets a
/// neighbouring pid, and whenever `pid_a ^ pid_b == epoch_a ^ epoch_b`
/// (pids `4k+1`/`4k+2` with epochs 1/2 — a quarter of consecutive-pid
/// spawns) the raw XORs cancel, the two incarnations mint the *same*
/// nonce, and the stale-completion fence goes vacuous: a veteran
/// worker's resent epoch-1 `Done` lands on the colliding epoch-2 lease
/// id and corrupts the merge.
fn incarnation_nonce(pid: u64, fingerprint: u64, epoch: u32) -> u64 {
    splitmix64(pid ^ splitmix64(fingerprint ^ splitmix64(u64::from(epoch))))
}

/// The sockets behind the coordinator's worker ids: what carries out
/// its [`Output`]s.
struct Link<'a> {
    run: &'a FleetRun<'a>,
    spawner: Spawner,
    /// Connections that said `Hello` but are not bound yet.
    unbound: BTreeMap<u64, TcpStream>,
    /// Bound connections: worker id → (connection id, write half).
    peers: BTreeMap<u64, (u64, TcpStream)>,
    reports: Vec<CrashReport>,
}

impl Link<'_> {
    fn write(stream: &mut TcpStream, frame: &FleetFrame) {
        let line = format!("{}\n", protocol::render(frame));
        let _ = stream.write_all(line.as_bytes());
    }

    fn send(&mut self, worker: u64, frame: &FleetFrame) {
        if let Some((_, stream)) = self.peers.get_mut(&worker) {
            Link::write(stream, frame);
        }
    }

    fn close(&mut self, worker: u64) {
        if let Some((_, stream)) = self.peers.remove(&worker) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// The worker a connection is bound to (none for an unbound or an
    /// already replaced one).
    fn worker_of(&self, conn: u64) -> Option<u64> {
        self.peers
            .iter()
            .find(|(_, (c, _))| *c == conn)
            .map(|(w, _)| *w)
    }

    fn carry_out(&mut self, output: Output, now: u64) {
        match output {
            Output::Bind { conn, worker } => {
                if let Some(stream) = self.unbound.remove(&conn) {
                    self.close(worker);
                    self.peers.insert(worker, (conn, stream));
                }
            }
            Output::Send { worker, frame } => self.send(worker, &frame),
            Output::Lease { worker, grant } => {
                let (_, cell) = &self.run.cells[grant.cell];
                let request = CellRequest {
                    benchmark: cell.benchmark.clone(),
                    collector: cell.collector,
                    heap_factor: cell.heap_factor,
                    invocations: self.run.sweep.invocations,
                    iterations: self.run.sweep.iterations,
                    size: self.run.sweep.size,
                    faults: self.run.faults.clone(),
                    hard: None,
                };
                let lease = FleetFrame::Lease {
                    lease: grant.lease,
                    attempt: grant.attempt,
                    payload: render_request(&request),
                };
                self.send(worker, &lease);
            }
            Output::Close { worker } => self.close(worker),
            Output::Spawn { slot, worker } => self.spawner.spawn(slot, worker),
            Output::Died {
                cells,
                last_seen,
                signal,
                ..
            } => {
                for idx in cells {
                    let (_, cell) = &self.run.cells[idx];
                    self.reports.push(CrashReport {
                        benchmark: cell.benchmark.clone(),
                        collector: cell.collector.to_string(),
                        heap_factor: cell.heap_factor,
                        outcome: "worker-died".to_string(),
                        exit_code: None,
                        signal,
                        last_heartbeat_ms: last_seen,
                        peak_rss_bytes: None,
                        wall_ms: now,
                    });
                }
            }
            Output::Note(note) => eprintln!("fleet: {note}"),
        }
    }
}

impl FleetRun<'_> {
    /// Serve `table` on `listener` at `epoch` until it drains (or the
    /// run dies), then wait up to [`WORKER_EXIT_GRACE_MS`] for the
    /// local workers to exit so no process of the run outlives it. The
    /// primary spawns its pool at epoch 1; a takeover serves the next
    /// epoch and only spawns workers if none of the primary's reconnect
    /// within the rescue window. Every decision is the
    /// [`Coordinator`]'s: this loop turns socket and reaper events into
    /// its inputs, carries out its outputs, and sleeps until its next
    /// wake-up. Returns the table and the crash reports of worker
    /// deaths.
    fn serve(
        &self,
        table: LeaseTable,
        listener: TcpListener,
        addr: String,
        epoch: u32,
        metrics: &mut MetricsRegistry,
    ) -> Result<(LeaseTable, Vec<CrashReport>), SuperviseError> {
        let (config, fingerprint) = (&self.config, self.fingerprint);
        let exe = std::env::current_exe().map_err(|e| {
            SuperviseError::Isolation(format!("fleet cannot resolve the worker executable: {e}"))
        })?;
        let hard_die: Option<u64> = std::env::var(protocol::ENV_FLEET_DIE_AFTER)
            .ok()
            .and_then(|v| v.parse().ok());
        // Every incarnation mints a fresh nonce; workers echo it on
        // `Done`/`Fail` so a successor can fence the previous incarnation's
        // completions out of its own lease-id space.
        let coord = incarnation_nonce(u64::from(std::process::id()), fingerprint, epoch);

        eprintln!(
            "fleet: coordinating {} cell(s) across {} worker(s) at {addr} \
             (attach with --fleet-connect {addr})",
            table.len() - table.resolved_count(),
            config.plan.workers,
        );
        if epoch > 1 {
            eprintln!("fleet: serving epoch {epoch} (incarnation {coord:016x})");
        }
        if let Some(plan) = &config.net {
            eprintln!("fleet: net-fault shim active: {plan}");
        }

        let (tx, rx) = mpsc::channel::<Event>();
        let stop = Arc::new(AtomicBool::new(false));
        {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, tx, stop));
        }
        let mut link = Link {
            run: self,
            spawner: Spawner {
                exe,
                addr: addr.clone(),
                storm_env: config.storm.as_ref().map(render_storm),
                token_env: config.token.clone(),
                tx,
            },
            unbound: BTreeMap::new(),
            peers: BTreeMap::new(),
            reports: Vec::new(),
        };
        let mut coordinator = Coordinator::new(
            table,
            config,
            Incarnation {
                coord,
                epoch,
                fingerprint,
                journal: (self.journal_path.as_deref()).map(|p| p.to_string_lossy().into_owned()),
                successor: epoch > 1,
            },
        );

        let span = WallSpan::begin();
        let now_ms = || span.elapsed_ms() as u64;
        let mut outputs = coordinator.start(now_ms());
        let mut drained_at: Option<u64> = None;
        let result = loop {
            let now = now_ms();
            // Test hooks: a real coordinator crash (no cleanup, no
            // persisted base journal), or a soft abort after K completions.
            let completions = coordinator.metrics().completions;
            if hard_die.is_some_and(|limit| completions >= limit) {
                die_by_signal(SIGKILL);
            }
            if let Some(limit) = config.die_after.filter(|&limit| completions >= limit) {
                break Err(SuperviseError::Isolation(format!(
                    "fleet coordinator aborted after {limit} completion(s) \
                     (die-after test hook); worker journals remain for --resume"
                )));
            }
            for output in outputs.drain(..) {
                link.carry_out(output, now);
            }
            let wait = if coordinator.is_drained() {
                // Peers stay connected while the workers exit: closing a
                // socket with unread frames resets it, and a reset can
                // destroy the `Drain` before the worker reads it.
                let left =
                    (*drained_at.get_or_insert(now) + WORKER_EXIT_GRACE_MS).saturating_sub(now);
                if coordinator.live_slots() == 0 {
                    break Ok(());
                }
                if left == 0 {
                    let alive = coordinator.live_slots();
                    eprintln!("fleet: {alive} worker(s) still running after the drain");
                    break Ok(());
                }
                Some(left)
            } else if coordinator.is_stranded() {
                break Err(SuperviseError::Isolation(
                    "the fleet lost every worker (crash budgets exhausted) before the \
                     matrix resolved; worker journals remain for --resume"
                        .to_string(),
                ));
            } else {
                coordinator.next_wake(now)
            };
            let event = match wait {
                Some(ms) => rx.recv_timeout(Duration::from_millis(ms)).ok(),
                None => rx.recv().ok(),
            };
            let input = match event {
                None => Input::Tick,
                Some(Event::Connected { conn, stream }) => {
                    link.unbound.insert(conn, stream);
                    continue;
                }
                Some(Event::Frame { conn, frame }) => match (link.worker_of(conn), frame) {
                    (Some(worker), frame) => Input::Frame { worker, frame },
                    (None, FleetFrame::Hello { worker, token })
                        if link.unbound.contains_key(&conn) =>
                    {
                        Input::Hello {
                            conn,
                            worker,
                            token,
                        }
                    }
                    // Pre-Hello garbage, or a refused connection.
                    _ => continue,
                },
                Some(Event::Eof { conn }) => {
                    link.unbound.remove(&conn);
                    match link.worker_of(conn) {
                        Some(worker) => {
                            link.peers.remove(&worker);
                            Input::Eof { worker }
                        }
                        None => continue,
                    }
                }
                Some(Event::Exited(exit)) => exit,
            };
            outputs = coordinator.step(input, now_ms());
        };

        // Wake the acceptor so its thread exits, then drop every peer.
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&addr);
        for (_, stream) in link.peers.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }

        let lease_metrics = coordinator.table().metrics();
        let m = coordinator.metrics();
        for (name, value) in [
            (fleet_metrics::WORKERS_SPAWNED, m.spawned),
            (fleet_metrics::WORKER_DEATHS, m.deaths),
            (fleet_metrics::WORKERS_QUARANTINED, m.quarantined_slots),
            (fleet_metrics::LEASES_ISSUED, lease_metrics.issued),
            (fleet_metrics::LEASES_EXPIRED, lease_metrics.expired),
            (fleet_metrics::LEASES_STOLEN, lease_metrics.stolen),
            (fleet_metrics::CELLS_REQUEUED, lease_metrics.requeued),
            (fleet_metrics::MERGE_CONFLICTS, lease_metrics.conflicts),
            ("supervisor.retries", lease_metrics.requeued),
            (fleet_metrics::NET_DROPPED, m.net_dropped),
            (fleet_metrics::NET_DELAYED, m.net_delayed),
            (fleet_metrics::NET_DUPLICATED, m.net_duplicated),
            (fleet_metrics::NET_PARTITIONED, m.net_partitioned),
            (fleet_metrics::AUTH_REJECTED, m.auth_rejected),
            (fleet_metrics::STALE_FENCED, m.stale_fenced),
            (fleet_metrics::WORKERS_REVIVED, m.revived),
        ] {
            metrics.inc(name, value);
        }
        result.map(|()| (coordinator.into_table(), link.reports))
    }
}

// ---------------------------------------------------------------------
// The worker.
// ---------------------------------------------------------------------

fn send_frame(writer: &Mutex<TcpStream>, frame: &FleetFrame) -> bool {
    let line = format!("{}\n", protocol::render(frame));
    lock(writer).write_all(line.as_bytes()).is_ok()
}

fn spawn_heartbeat(writer: Arc<Mutex<TcpStream>>, me: u64) {
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(HEARTBEAT_EVERY_MS));
        if !send_frame(&writer, &FleetFrame::Beat { worker: me }) {
            break;
        }
    });
}

/// Run one lease: decode the request, execute the cell inline (exactly
/// the sandbox child's execution path), and classify any failure with
/// the same `panicked:`/`errored:` prefixes the supervisor maps back
/// into the quarantine taxonomy.
fn execute_lease(payload: &str) -> Result<(CellKey, CellOutcome), String> {
    let request = parse_request(payload).map_err(|e| format!("errored: {e}"))?;
    let key = CellKey {
        benchmark: request.benchmark.clone(),
        collector: request.collector,
        heap_factor: request.heap_factor,
    };
    let profile = chopin_workloads::suite::by_name(&request.benchmark)
        .ok_or_else(|| format!("errored: unknown benchmark `{}`", request.benchmark))?;
    match catch_unwind(AssertUnwindSafe(|| run_cell_inline(&profile, &request))) {
        Ok(Ok(outcome)) => Ok((key, outcome)),
        Ok(Err(e)) => Err(format!("errored: {e}")),
        Err(payload) => Err(format!("panicked: {}", panic_message(payload))),
    }
}

/// One event from the worker's manual line reader.
enum LineEvent {
    Line(String),
    TimedOut,
    Eof,
}

/// A line reader over a read-timeout socket that never loses partial
/// data: `BufReader::read_line` drops its accumulator on a timeout,
/// which under the net-fault shim's injected delays would tear frames.
/// This reader keeps every byte across timeouts.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
        }
    }

    fn next_line(&mut self) -> LineEvent {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                return LineEvent::Line(String::from_utf8_lossy(&line).into_owned());
            }
            let mut chunk = [0u8; 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineEvent::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return LineEvent::TimedOut
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Eof,
            }
        }
    }
}

/// Worker-side state that survives reconnects: identity, the journal
/// shard (created once per process, never re-truncated), the advertised
/// successor address, and the last un-acknowledged reply for the
/// resend discipline.
struct WorkerSession {
    token: Option<String>,
    storm: Option<WorkerStormPlan>,
    me: Option<u64>,
    journal: Option<Journal>,
    successor: Option<String>,
    leases_received: u32,
    pending: Option<FleetFrame>,
    last_lease: Option<u64>,
    /// The `coord` nonce of the incarnation that last welcomed us
    /// (0 = never joined). A Welcome carrying a *different* nonce means
    /// the old incarnation is dead: its pending reply and lease id are
    /// dropped, because a successor's lease ids restart at 0 and must
    /// not be shadowed by the dead id space.
    last_coord: u64,
    joined_once: bool,
}

/// Why one coordinator connection ended.
enum ServeEnd {
    /// The coordinator drained the matrix; the run is over.
    Drained,
    /// The coordinator refused admission (bad token); do not retry.
    Rejected(String),
    /// The connection died or went silent; reconnect with backoff.
    Lost,
}

/// Serve one coordinator connection: join, run leases, ride out
/// dropped and duplicated frames. Timeouts re-send the pending reply
/// and re-ask for work (the wire may have eaten either direction);
/// sustained silence abandons the connection for a reconnect.
fn serve_coordinator(addr: &str, s: &mut WorkerSession, attempts: &mut u32) -> ServeEnd {
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(_) => return ServeEnd::Lost,
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(WORKER_RESEND_MS)));
    let Ok(read_half) = stream.try_clone() else {
        return ServeEnd::Lost;
    };
    let writer = Arc::new(Mutex::new(stream));
    if !send_frame(
        &writer,
        &FleetFrame::Hello {
            worker: s.me,
            token: s.token.clone(),
        },
    ) {
        return ServeEnd::Lost;
    }

    let mut reader = LineReader::new(read_half);
    let mut me = s.me.unwrap_or(0);
    let mut coord = 0u64;
    let mut joined = false;
    let mut silent_ms = 0u64;
    loop {
        match reader.next_line() {
            LineEvent::Eof => return ServeEnd::Lost,
            LineEvent::TimedOut => {
                silent_ms += WORKER_RESEND_MS;
                if silent_ms >= WORKER_SILENCE_MS {
                    return ServeEnd::Lost;
                }
                if joined {
                    // The wire may have eaten our reply or the next
                    // Lease; resending both is idempotent (the lease
                    // table keys completions on the lease id).
                    if let Some(pending) = &s.pending {
                        if !send_frame(&writer, pending) {
                            return ServeEnd::Lost;
                        }
                    }
                    if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
                        return ServeEnd::Lost;
                    }
                }
            }
            LineEvent::Line(line) => {
                silent_ms = 0;
                let Some(frame) = protocol::parse(&line) else {
                    continue;
                };
                match frame {
                    FleetFrame::Welcome {
                        worker,
                        fingerprint,
                        coord: c,
                        journal: base,
                        ..
                    } => {
                        me = worker;
                        s.me = Some(worker);
                        coord = c;
                        if s.last_coord != c {
                            if s.last_coord != 0 {
                                // A different incarnation welcomed us: the
                                // reply we were holding belongs to a dead
                                // lease-id space. Resending it would at
                                // best be fenced noise, and its lease id
                                // must not dedup this incarnation's
                                // grants (successor ids restart at 0).
                                // The journal shard already holds the
                                // finished work — nothing is lost.
                                s.pending = None;
                                s.last_lease = None;
                            }
                            s.last_coord = c;
                        }
                        joined = true;
                        s.joined_once = true;
                        *attempts = 0;
                        // Create the shard only on the FIRST admission
                        // of this process: re-creating on reconnect
                        // would truncate the very work a reconnect is
                        // supposed to preserve.
                        if s.journal.is_none() {
                            let fp = u64::from_str_radix(&fingerprint, 16).unwrap_or(0);
                            s.journal = base.and_then(|b| {
                                Journal::create(&worker_journal_path(Path::new(&b), me), fp).ok()
                            });
                        }
                        spawn_heartbeat(Arc::clone(&writer), me);
                        if let Some(pending) = &s.pending {
                            if !send_frame(&writer, pending) {
                                return ServeEnd::Lost;
                            }
                        }
                        if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
                            return ServeEnd::Lost;
                        }
                    }
                    FleetFrame::Reject { reason } => return ServeEnd::Rejected(reason),
                    FleetFrame::Standby { addr } => s.successor = Some(addr),
                    FleetFrame::Wait { ms } => {
                        // Wait on the socket rather than the clock, so a
                        // frame landing meanwhile (above all the final
                        // Drain) ends the wait early.
                        if reader.buf.is_empty() {
                            let wait = Duration::from_millis(ms.clamp(1, MAX_WORKER_WAIT_MS));
                            let _ = reader.stream.set_read_timeout(Some(wait));
                            let _ = reader.stream.peek(&mut [0u8; 1]);
                            let resend = Duration::from_millis(WORKER_RESEND_MS);
                            let _ = reader.stream.set_read_timeout(Some(resend));
                        }
                        if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
                            return ServeEnd::Lost;
                        }
                    }
                    FleetFrame::Lease {
                        lease,
                        attempt,
                        payload,
                    } => {
                        if s.last_lease == Some(lease) {
                            // A duplicated Lease frame: the work already
                            // ran (or is our current grant); just re-ack.
                            if let Some(pending) = &s.pending {
                                if !send_frame(&writer, pending) {
                                    return ServeEnd::Lost;
                                }
                            }
                            if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
                                return ServeEnd::Lost;
                            }
                            continue;
                        }
                        s.last_lease = Some(lease);
                        s.pending = None;
                        s.leases_received += 1;
                        if let Some(storm) = &s.storm {
                            if storm.is_victim(me) && s.leases_received >= storm.kill_after_leases {
                                // The storm: die mid-lease exactly as a
                                // crashed worker would, before any work
                                // happens.
                                if storm.plan.kind == HardFaultKind::Abort {
                                    std::process::abort();
                                }
                                die_by_signal(SIGKILL);
                            }
                        }
                        let reply = match execute_lease(&payload) {
                            Ok((key, outcome)) => {
                                if let Some(j) = s.journal.as_mut() {
                                    let _ = j.record(JournalEntry {
                                        key,
                                        record: CellRecord {
                                            samples: outcome.samples.clone(),
                                            infeasible: outcome.infeasible.clone(),
                                        },
                                        provenance: Some(CellProvenance {
                                            attempt,
                                            worker: me,
                                        }),
                                    });
                                }
                                FleetFrame::Done {
                                    worker: me,
                                    lease,
                                    coord,
                                    payload: render_response(&outcome),
                                }
                            }
                            Err(reason) => FleetFrame::Fail {
                                worker: me,
                                lease,
                                coord,
                                reason,
                            },
                        };
                        let sent = send_frame(&writer, &reply);
                        s.pending = Some(reply);
                        if !sent {
                            return ServeEnd::Lost;
                        }
                        if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
                            return ServeEnd::Lost;
                        }
                    }
                    FleetFrame::Drain => return ServeEnd::Drained,
                    _ => {}
                }
            }
        }
    }
}

/// The fleet worker loop: serve the coordinator until drained,
/// reconnecting with exponential backoff when a connection is lost —
/// alternating between the primary address and any advertised standby
/// successor. A worker that joined at least once exits cleanly when the
/// fleet stays unreachable (its shard keeps everything it finished); a
/// worker that never joined reports infrastructure failure.
fn run_worker(
    addr: &str,
    id: Option<u64>,
    storm: Option<WorkerStormPlan>,
    token: Option<String>,
) -> i32 {
    let mut session = WorkerSession {
        token,
        storm,
        me: id,
        journal: None,
        successor: None,
        leases_received: 0,
        pending: None,
        last_lease: None,
        last_coord: 0,
        joined_once: false,
    };
    let mut attempts: u32 = 0;
    let mut backoff = RECONNECT_BASE_MS;
    loop {
        let target = match &session.successor {
            Some(successor) if attempts.is_multiple_of(2) => successor.clone(),
            _ => addr.to_string(),
        };
        match serve_coordinator(&target, &mut session, &mut attempts) {
            ServeEnd::Drained => return 0,
            ServeEnd::Rejected(reason) => {
                eprintln!("error: fleet worker rejected by the coordinator: {reason}");
                return 2;
            }
            ServeEnd::Lost => {
                if attempts == 0 {
                    // The last connection joined successfully; restart
                    // the backoff schedule from scratch.
                    backoff = RECONNECT_BASE_MS;
                }
                attempts += 1;
                if attempts > MAX_RECONNECT_ATTEMPTS {
                    if session.joined_once {
                        eprintln!(
                            "fleet worker: coordinator unreachable after \
                             {MAX_RECONNECT_ATTEMPTS} reconnect attempts; exiting \
                             (the journal shard keeps finished work)"
                        );
                        return 0;
                    }
                    eprintln!("error: fleet worker cannot reach the coordinator at {addr}");
                    return 2;
                }
                std::thread::sleep(Duration::from_millis(backoff));
                backoff = (backoff * 2).min(RECONNECT_MAX_MS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_core::lbo::RunSample;
    use chopin_runtime::collector::CollectorKind;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chopin-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample(wall: f64) -> RunSample {
        RunSample {
            collector: CollectorKind::Shenandoah,
            heap_factor: 2.0,
            wall_s: wall,
            task_s: wall * 7.0,
            wall_distillable_s: wall * 0.9,
            task_distillable_s: wall * 6.3,
        }
    }

    fn cell(benchmark: &str) -> Cell {
        Cell {
            benchmark: benchmark.to_string(),
            collector: CollectorKind::Shenandoah,
            heap_factor: 2.0,
        }
    }

    fn entry(benchmark: &str, wall: f64, provenance: Option<CellProvenance>) -> JournalEntry {
        JournalEntry {
            key: CellKey {
                benchmark: benchmark.to_string(),
                collector: CollectorKind::Shenandoah,
                heap_factor: 2.0,
            },
            record: CellRecord {
                samples: vec![sample(wall)],
                infeasible: None,
            },
            provenance,
        }
    }

    #[test]
    fn incarnation_nonces_survive_xor_cancelling_pid_epoch_pairs() {
        // Regression: the nonce used to be splitmix64(pid ^ fp ^ epoch),
        // so any pid pair whose XOR equals the epoch pair's XOR minted
        // the SAME nonce for both incarnations — e.g. a standby at pid
        // 4k+1 taking over (epoch 2) from a primary at pid 4k+2
        // (epoch 1). The fence against stale cross-epoch completions
        // was then vacuous and resent epoch-1 Dones corrupted the
        // epoch-2 merge on colliding lease ids.
        let fp = 0x000c_0ffe_e0dd_f00d_u64;
        for standby_pid in [1u64, 5, 1021, 40_961, 65_537] {
            let primary_pid = standby_pid ^ 3;
            assert_ne!(
                incarnation_nonce(primary_pid, fp, 1),
                incarnation_nonce(standby_pid, fp, 2),
                "primary pid {primary_pid} epoch 1 vs standby pid {standby_pid} epoch 2"
            );
        }
        // And the generic guarantees: epoch bumps and pid changes each
        // move the nonce on their own.
        assert_ne!(
            incarnation_nonce(1234, fp, 1),
            incarnation_nonce(1234, fp, 2)
        );
        assert_ne!(
            incarnation_nonce(1234, fp, 1),
            incarnation_nonce(1235, fp, 1)
        );
    }

    #[test]
    fn worker_journal_paths_sit_next_to_the_base() {
        let base = Path::new("/tmp/run/suite.journal");
        assert_eq!(
            worker_journal_path(base, 3),
            Path::new("/tmp/run/suite.journal.w3")
        );
        assert_eq!(
            worker_journal_path(base, 17),
            Path::new("/tmp/run/suite.journal.w17")
        );
    }

    #[test]
    fn sibling_discovery_finds_worker_journals_in_id_order() {
        let base = scratch("discover.journal");
        std::fs::write(&base, "").unwrap();
        for id in [10u64, 2, 0] {
            std::fs::write(worker_journal_path(&base, id), "").unwrap();
        }
        // Near-misses that must not match.
        std::fs::write(base.with_file_name("discover.journal.wx"), "").unwrap();
        std::fs::write(base.with_file_name("other.journal.w1"), "").unwrap();
        let found = sibling_worker_journals(&base);
        assert_eq!(
            found,
            vec![
                worker_journal_path(&base, 0),
                worker_journal_path(&base, 2),
                worker_journal_path(&base, 10),
            ]
        );
    }

    /// The steal-race edge case, hand-crafted: the same cell completed
    /// twice — once by the original leaseholder on attempt 2, once by a
    /// thief on attempt 1 (the steal reuses the outstanding attempt
    /// number; a *re-lease after expiry* bumps it). The merge must pick
    /// the lower attempt, and between equal attempts the lower worker
    /// id, regardless of which journal is read first.
    #[test]
    fn steal_race_merge_is_deterministic_and_persists_the_winner() {
        let fingerprint = 0xdead_beef;
        let base_path = scratch("steal.journal");
        let _ = std::fs::remove_file(&base_path);
        // Worker 3 (the thief, attempt 1) and worker 1 (the straggler,
        // re-leased attempt 2) both journalled the cell; worker 5 also
        // duplicates attempt 1 to exercise the worker-id tiebreak.
        for (worker, attempt, wall) in [(3u64, 1u32, 0.25), (1, 2, 0.5), (5, 1, 0.75)] {
            let mut j =
                Journal::create(&worker_journal_path(&base_path, worker), fingerprint).unwrap();
            j.record(entry("fop", wall, Some(CellProvenance { attempt, worker })))
                .unwrap();
        }
        // A sibling journal from a *different* configuration must not
        // contribute candidates — but it must be *counted* as rejected,
        // never silently dropped.
        let mut stale = Journal::create(&worker_journal_path(&base_path, 9), 0x0bad).unwrap();
        stale
            .record(entry(
                "fop",
                9.0,
                Some(CellProvenance {
                    attempt: 1,
                    worker: 9,
                }),
            ))
            .unwrap();

        let cells = vec![(0usize, cell("fop"))];
        let seeds: Vec<u64> = cells.iter().map(|(_, c)| cell_seed(c)).collect();
        let mut table = LeaseTable::new(seeds, SupervisorPolicy::default(), 1_000);
        let mut journal = Some(Journal::create(&base_path, fingerprint).unwrap());
        let absorbed = absorb_recovered(
            &mut table,
            &cells,
            &mut journal,
            Some(&base_path),
            fingerprint,
        );
        assert_eq!(absorbed.recovered, 1);
        assert_eq!(absorbed.conflicts, 2);
        assert_eq!(
            absorbed.foreign_shards, 1,
            "the stale shard is rejected, visibly"
        );
        assert!(table.is_done());

        // Winner: attempt 1, worker 3 (lower attempt beats lower
        // worker; then worker 3 beats worker 5).
        match table.resolutions().pop().unwrap() {
            CellResolution::Completed {
                attempt,
                worker,
                payload,
            } => {
                assert_eq!((attempt, worker), (1, 3));
                let outcome = parse_response(&payload).unwrap();
                assert_eq!(outcome.samples[0].wall_s, 0.25);
            }
            other => panic!("expected a completion, got {other:?}"),
        }

        // And the winner was persisted into the base journal at absorb
        // time, so a second coordinator crash cannot lose it.
        let reloaded = Journal::load(&base_path).unwrap();
        let record = reloaded.lookup(&key_of(&cell("fop"))).unwrap();
        assert_eq!(record.samples[0].wall_s, 0.25);
        assert_eq!(
            reloaded.entries()[0].provenance,
            Some(CellProvenance {
                attempt: 1,
                worker: 3
            })
        );
    }

    /// A worker shard is read while its worker may still be appending to
    /// it: a torn last line costs that one record, never the shard's
    /// complete records before it.
    #[test]
    fn a_shard_with_a_torn_tail_still_contributes_its_complete_records() {
        let fingerprint = 0x5eed;
        let base_path = scratch("torn-shard.journal");
        let _ = std::fs::remove_file(&base_path);
        let shard_path = worker_journal_path(&base_path, 2);
        let prov = Some(CellProvenance {
            attempt: 1,
            worker: 2,
        });
        let mut shard = Journal::create(&shard_path, fingerprint).unwrap();
        shard.record(entry("fop", 0.25, prov)).unwrap();
        shard.record(entry("pmd", 0.5, prov)).unwrap();
        shard.record(entry("h2", 0.75, prov)).unwrap();
        drop(shard);
        // Cut the h2 line mid-write.
        let bytes = std::fs::read(&shard_path).unwrap();
        std::fs::write(&shard_path, &bytes[..bytes.len() - 20]).unwrap();

        let cells = vec![(0usize, cell("fop")), (1, cell("pmd")), (2, cell("h2"))];
        let seeds: Vec<u64> = cells.iter().map(|(_, c)| cell_seed(c)).collect();
        let mut table = LeaseTable::new(seeds, SupervisorPolicy::default(), 1_000);
        let mut journal = Some(Journal::create(&base_path, fingerprint).unwrap());
        let absorbed = absorb_recovered(
            &mut table,
            &cells,
            &mut journal,
            Some(&base_path),
            fingerprint,
        );
        assert_eq!(absorbed.recovered, 2, "fop and pmd survive the torn h2");
        assert_eq!(absorbed.foreign_shards, 0);
        assert!(!table.is_done(), "h2 is still owed");
        let reloaded = Journal::load(&base_path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.lookup(&key_of(&cell("h2"))).is_none());
    }

    /// Equal `(attempt, worker)` candidates from *different* journals:
    /// the base journal already holds a winner persisted by an earlier
    /// resume while the worker's own shard (not yet truncated) carries
    /// the same completion — possibly with a different byte rendering
    /// if the shard tail was torn. The payload tiebreak must pick one
    /// deterministically instead of trusting arrival order.
    #[test]
    fn equal_provenance_shard_conflicts_tiebreak_on_payload_bytes() {
        let fingerprint = 0xfeed_f00d;
        let base_path = scratch("equalprov.journal");
        let _ = std::fs::remove_file(&base_path);
        let prov = CellProvenance {
            attempt: 1,
            worker: 3,
        };
        let mut base = Journal::create(&base_path, fingerprint).unwrap();
        base.record(entry("fop", 0.5, Some(prov))).unwrap();
        drop(base);
        let mut shard = Journal::create(&worker_journal_path(&base_path, 3), fingerprint).unwrap();
        shard.record(entry("fop", 0.25, Some(prov))).unwrap();
        drop(shard);

        let cells = vec![(0usize, cell("fop"))];
        let seeds: Vec<u64> = cells.iter().map(|(_, c)| cell_seed(c)).collect();
        let mut table = LeaseTable::new(seeds, SupervisorPolicy::default(), 1_000);
        let mut journal = Some(Journal::load(&base_path).unwrap());
        let absorbed = absorb_recovered(
            &mut table,
            &cells,
            &mut journal,
            Some(&base_path),
            fingerprint,
        );
        assert_eq!(absorbed.recovered, 1);
        assert_eq!(absorbed.conflicts, 1);
        assert_eq!(absorbed.foreign_shards, 0);
        match table.resolutions().pop().unwrap() {
            CellResolution::Completed {
                attempt,
                worker,
                payload,
            } => {
                assert_eq!((attempt, worker), (1, 3));
                // The winner is the byte-wise minimum of the two
                // renderings — a pure function of the candidate set.
                let rendered = |wall: f64| {
                    let e = entry("fop", wall, Some(prov));
                    render_response(&CellOutcome {
                        samples: e.record.samples,
                        infeasible: e.record.infeasible,
                    })
                };
                let expected = rendered(0.5).min(rendered(0.25));
                assert_eq!(payload, expected);
            }
            other => panic!("expected a completion, got {other:?}"),
        }
    }

    #[test]
    fn fleet_flags_parse_and_reject_orphans() {
        let none = Args::parse(["--quick"]);
        assert_eq!(fleet_config_from_args(&none).unwrap(), None);

        let orphan = Args::parse(["--lease-deadline", "500"]);
        assert!(fleet_config_from_args(&orphan)
            .unwrap_err()
            .contains("--fleet"));

        for orphan_flag in [
            ["--fleet-bind", "127.0.0.1:7000"],
            ["--fleet-token", "s3cret"],
            ["--net-faults", "storm"],
            ["--fleet-standby", "127.0.0.1:7001"],
        ] {
            let orphan = Args::parse(orphan_flag);
            assert!(
                fleet_config_from_args(&orphan)
                    .unwrap_err()
                    .contains("--fleet"),
                "{} must require --fleet",
                orphan_flag[0]
            );
        }

        let full = Args::parse([
            "--fleet",
            "4",
            "--lease-deadline",
            "750",
            "--fleet-storm",
            "kill:7",
            "--fleet-bind",
            "127.0.0.1:0",
            "--fleet-token",
            "s3cret",
            "--net-faults",
            "partition:11",
        ]);
        let config = fleet_config_from_args(&full).unwrap().unwrap();
        assert_eq!(config.plan.workers, 4);
        assert_eq!(config.plan.deadline_ms(), 750);
        assert_eq!(config.bind.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.token.as_deref(), Some("s3cret"));
        let net = config.net.unwrap();
        assert_eq!(net.seed, 11);
        assert!(net.partition_period_ms > 0);
        let storm = config.storm.unwrap();
        assert_eq!(storm.plan.seed, 7);
        assert_eq!(storm.plan.kind, HardFaultKind::Kill);

        let standby = Args::parse(["--fleet", "2", "--fleet-standby", "127.0.0.1:7001"]);
        let config = fleet_config_from_args(&standby).unwrap().unwrap();
        assert_eq!(config.standby_of.as_deref(), Some("127.0.0.1:7001"));

        let zero = Args::parse(["--fleet", "0"]);
        assert!(fleet_config_from_args(&zero).is_err());

        let bad_bind = Args::parse(["--fleet", "2", "--fleet-bind", "not-an-addr"]);
        assert!(
            fleet_config_from_args(&bad_bind)
                .unwrap_err()
                .contains("routable"),
            "bad bind must fail validation"
        );

        let bad_net = Args::parse(["--fleet", "2", "--net-faults", "tsunami"]);
        assert!(fleet_config_from_args(&bad_net).is_err());
    }

    #[test]
    fn worker_failure_reasons_map_back_into_the_taxonomy() {
        assert_eq!(
            parse_reason("panicked: index out of bounds"),
            QuarantineReason::Panicked("index out of bounds".to_string())
        );
        assert_eq!(
            parse_reason("errored: unknown benchmark `nope`"),
            QuarantineReason::Errored("unknown benchmark `nope`".to_string())
        );
        assert_eq!(
            parse_reason("mystery"),
            QuarantineReason::Errored("mystery".to_string())
        );
    }

    #[test]
    fn storm_env_round_trips_through_the_flag_grammar() {
        let storm = parse_storm_flag("kill:41:3").unwrap();
        let rendered = render_storm(&storm);
        let reparsed = parse_storm_flag(&rendered).unwrap();
        assert_eq!(reparsed.plan, storm.plan);
    }
}
