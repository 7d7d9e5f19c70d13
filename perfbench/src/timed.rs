//! The timed run: each workload's commands launched as child processes
//! of the benchmark, with tracing off. Wall time, CPU, peak RSS and the
//! time to the pre-flight verdict come from outside the program; every
//! output is checked against the library reference.

use crate::reference::{Reference, Verdict};
use crate::stats::median;
use crate::sys::{self, Exit, Reap, Usage};
use crate::workload::{self, Command, Order, Workload};
use std::io::{BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::thread;
use std::time::{Duration, Instant};

/// How long a descendant may outlive its command before it counts as a
/// leftover and is killed.
const LEFTOVER_GRACE: Duration = Duration::from_secs(1);

/// How long a leftover is waited for, after which the run gives up.
const LEFTOVER_WAIT: Duration = Duration::from_secs(60);

/// Fewest timed repetitions per run, however long each takes.
const MIN_REPS: usize = 3;

/// Where the binaries live and where the commands run.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The release directory holding the shipped binaries.
    pub bin_dir: PathBuf,
    /// A scratch directory inside the checkout; the commands' cwd.
    pub work: PathBuf,
}

/// One finished command.
#[derive(Debug)]
struct CmdRun {
    wall_s: f64,
    setup_s: f64,
    usage: Usage,
    exit: Exit,
    stdout: String,
    leftovers: bool,
}

/// Read a stream to its end, noting when the first byte arrived.
fn drain(mut stream: impl Read) -> (Vec<u8>, Option<Instant>) {
    let mut data = Vec::new();
    let mut first = None;
    let mut buf = [0u8; 64 * 1024];
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        first.get_or_insert_with(Instant::now);
        data.extend_from_slice(&buf[..n]);
    }
    (data, first)
}

/// Read stderr line by line, noting the first byte and the pre-flight
/// verdict line (`preflight: ...`).
fn drain_stderr(stream: impl Read) -> (Option<Instant>, Option<Instant>) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut first = None;
    let mut verdict = None;
    while let Ok(n) = reader.read_until(b'\n', &mut line) {
        if n == 0 {
            break;
        }
        let now = Instant::now();
        first.get_or_insert(now);
        if verdict.is_none() && line.starts_with(b"preflight: ") {
            verdict = Some(now);
        }
        line.clear();
    }
    (first, verdict)
}

/// Reap every descendant that is still around. Orphans are re-parented
/// here (this process is their subreaper). One still running after
/// [`LEFTOVER_GRACE`] is a leftover: it is killed with its process group
/// `pgid` when there is one, and waited for in any case, for at most
/// [`LEFTOVER_WAIT`]. Returns whether there was a leftover.
pub fn reap_descendants(pgid: Option<u32>, usage: &mut Usage) -> Result<bool, String> {
    let start = Instant::now();
    let mut leftover = false;
    loop {
        match sys::reap_any().map_err(|e| format!("reaping descendants: {e}"))? {
            Reap::Reaped(u) => usage.absorb(u),
            Reap::Empty => return Ok(leftover),
            Reap::Running => {
                let waited = start.elapsed();
                if waited >= LEFTOVER_WAIT {
                    return Err("a leftover process survives every attempt to end it".into());
                }
                if waited >= LEFTOVER_GRACE && !leftover {
                    leftover = true;
                    if let Some(pgid) = pgid {
                        sys::kill_group(pgid);
                    }
                }
                thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// The argument that turns this binary into a launcher: it starts the
/// command given after it and exits at once, leaving the command to be
/// re-parented to the benchmark. A child spawned straight from the
/// benchmark would inherit the benchmark's peak RSS (which holds the
/// reference) into its own `ru_maxrss`; spawned from the launcher, it
/// inherits only the launcher's few MB.
pub const SPAWN_FLAG: &str = "--spawn";

/// The launcher's `main`: start `argv[0]` with arguments `argv[1..]`,
/// sharing this process's stdio, directory and process group.
pub fn launch(argv: &[std::ffi::OsString]) -> i32 {
    let Some((bin, args)) = argv.split_first() else {
        return 2;
    };
    match std::process::Command::new(bin).args(args).spawn() {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("perfbench: cannot start {}: {e}", bin.to_string_lossy());
            127
        }
    }
}

fn run_command(paths: &Paths, cmd: &Command) -> Result<CmdRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the launcher: {e}"))?;
    let start = Instant::now();
    let mut launcher = std::process::Command::new(exe)
        .arg(SPAWN_FLAG)
        .arg(paths.bin_dir.join(cmd.bin))
        .args(&cmd.args)
        .current_dir(&paths.work)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", cmd.bin))?;
    let pgid = launcher.id();
    let stdout = launcher.stdout.take().ok_or("stdout not piped")?;
    let stderr = launcher.stderr.take().ok_or("stderr not piped")?;
    thread::scope(|s| {
        let out = s.spawn(move || drain(stdout));
        let err = s.spawn(move || drain_stderr(stderr));
        let (started, _) = sys::wait_child(pgid).map_err(|e| format!("waiting: {e}"))?;
        if started != Exit::Code(0) {
            return Err(format!("could not start {}", cmd.bin));
        }
        // The command is now this process's only child.
        let (exit, mut usage) = sys::wait_any().map_err(|e| format!("waiting: {e}"))?;
        let end = Instant::now();
        let leftovers = reap_descendants(Some(pgid), &mut usage)?;
        let (stdout, first_out) = out.join().map_err(|_| "stdout reader panicked")?;
        let (first_err, verdict) = err.join().map_err(|_| "stderr reader panicked")?;
        let first_byte = [first_out, first_err].into_iter().flatten().min();
        let setup_end = verdict.or(first_byte).unwrap_or(end);
        Ok(CmdRun {
            wall_s: (end - start).as_secs_f64(),
            setup_s: (setup_end - start).as_secs_f64(),
            usage,
            exit,
            stdout: String::from_utf8_lossy(&stdout).into_owned(),
            leftovers,
        })
    })
}

/// One repetition of a workload, measured end to end.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall time of the workload's commands, seconds.
    pub wall_s: f64,
    /// User plus system CPU of every process the commands started.
    pub cpu_s: f64,
    /// Launch to pre-flight verdict (or first output byte), summed.
    pub setup_s: f64,
    /// Largest peak RSS of any process, MiB.
    pub peak_rss_mb: f64,
    /// Cells the commands simulated.
    pub cells: u64,
    /// Wall times of the resume leg and resume probes, seconds.
    pub resume_s: Vec<f64>,
    /// Output units checked and failed (see [`Verdict`]).
    pub verdict: Verdict,
    /// Whether a process outlived its command.
    pub leftovers: bool,
}

/// Fail if any process from an earlier command is still around.
fn assert_clean() -> Result<(), String> {
    match sys::reap_any().map_err(|e| e.to_string())? {
        Reap::Empty => Ok(()),
        _ => Err("a process from an earlier run is still alive".to_string()),
    }
}

fn remove_journal(paths: &Paths, journal: &str) {
    if let Ok(entries) = std::fs::read_dir(&paths.work) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(journal) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Run one command as part of `rep`, folding in its check.
fn step(
    paths: &Paths,
    reference: &Reference,
    cmd: &Command,
    rep: &mut Rep,
) -> Result<CmdRun, String> {
    let run = run_command(paths, cmd)?;
    rep.verdict.absorb(reference.check(
        cmd.expect,
        cmd.cells,
        run.exit == Exit::Code(0),
        &run.stdout,
    ));
    rep.leftovers |= run.leftovers;
    Ok(run)
}

/// Extra runs of the resume command per repetition: a resume takes tens
/// of milliseconds, so one sample per repetition would be too few.
const RESUME_SAMPLES: usize = 6;

fn one_rep(
    paths: &Paths,
    workload: Workload,
    order: &Order,
    reference: &Reference,
    resume: &Command,
) -> Result<Rep, String> {
    assert_clean()?;
    let mut rep = Rep::default();
    if workload == Workload::Journal {
        remove_journal(paths, JOURNAL);
    }
    for cmd in workload::commands(workload, order, JOURNAL) {
        let run = step(paths, reference, &cmd, &mut rep)?;
        rep.wall_s += run.wall_s;
        rep.cpu_s += run.usage.cpu_s;
        rep.setup_s += run.setup_s;
        rep.peak_rss_mb = rep.peak_rss_mb.max(run.usage.maxrss_kb as f64 / 1024.0);
        rep.cells += cmd.cells;
        if cmd.args == resume.args {
            rep.resume_s.push(run.wall_s);
        }
    }
    for _ in 0..RESUME_SAMPLES {
        let wall_s = step(paths, reference, resume, &mut rep)?.wall_s;
        rep.resume_s.push(wall_s);
    }
    Ok(rep)
}

/// The journal file name, relative to the work directory.
const JOURNAL: &str = "sweep.journal";

/// Everything a timed run measured.
#[derive(Debug)]
pub struct Timed {
    /// The timed repetitions.
    pub reps: Vec<Rep>,
    /// Checks over every command run.
    pub verdict: Verdict,
    /// Whether any command left a process behind.
    pub leftovers: bool,
}

impl Timed {
    /// The median of one per-repetition value.
    pub fn median(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// The median over every resume sample of the run.
    pub fn resume_s(&self) -> f64 {
        let samples: Vec<f64> = self.reps.iter().flat_map(|r| r.resume_s.clone()).collect();
        median(&samples)
    }
}

/// Run `workload` repeatedly for at least `seconds`, and at least
/// [`MIN_REPS`] times. No repetition is discarded as a warm-up: the
/// reference sweep and the journal the resume probe needs have already
/// run by then, and the median absorbs a slow first repetition.
pub fn run(
    paths: &Paths,
    workload: Workload,
    order: &Order,
    reference: &Reference,
    seconds: f64,
) -> Result<Timed, String> {
    let mut all = Rep::default();
    let (write, resume) = workload::resume_probe(workload, order, JOURNAL);
    if let Some(write) = write {
        remove_journal(paths, JOURNAL);
        step(paths, reference, &write, &mut all)?;
    }
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let rep = one_rep(paths, workload, order, reference, &resume)?;
        all.verdict.absorb(rep.verdict.clone());
        all.leftovers |= rep.leftovers;
        reps.push(rep);
    }
    remove_journal(paths, JOURNAL);
    assert_clean()?;
    Ok(Timed {
        reps,
        verdict: all.verdict,
        leftovers: all.leftovers,
    })
}

/// Resolve the release directory the way cargo does: `CARGO_TARGET_DIR`
/// (relative to the checkout) or the checkout's `target/`.
pub fn release_dir(root: &Path) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    root.join(target).join("release")
}
