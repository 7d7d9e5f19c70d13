//! The traced run: the same workloads driven through the library's
//! public API, with a span around every call into a layer. Spans are
//! recorded from this file only; the program itself is not changed.
//!
//! Per-layer metrics a workload does not exercise read 0: journal, spawn,
//! transport and render do no work on the workloads that bypass them,
//! which is exactly what a change to those layers must leave unchanged.

use crate::reference::{csv_text, latency_text, lbo_text, Reference, Verdict};
use crate::spans::{self, named, Recorder, Span, SpanId};
use crate::stats::{median, quantile};
use crate::workload::{self, Order, Workload, LATENCY_CELLS_PER_BENCHMARK, LATENCY_HEAPS};
use crate::{sys, timed};
use crate::{Metric, Report};
use chopin_analyzer::Methodology;
use chopin_core::lbo::{Clock, LboAnalysis};
use chopin_core::sweep::{SweepConfig, SweepResult};
use chopin_core::BenchmarkRunner;
use chopin_faults::SupervisorPolicy;
use chopin_fleet::protocol::{self, FleetFrame};
use chopin_fleet::{CellMerge, FleetConfig, Grant, LeaseTable};
use chopin_harness::cli::Args;
use chopin_harness::journal::{CellKey, CellRecord, Journal, JournalEntry};
use chopin_harness::supervisor::{Cell, CellFailure, CellOutcome, CellRunner, SweepCellRunner};
use chopin_harness::{
    preflight, LatencyExperiment, LboExperiment, ProcessCellRunner, SuiteSupervisor,
};
use chopin_obs::MetricsRegistry;
use chopin_runtime::CollectorKind;
use chopin_sandbox::SandboxPolicy;
use chopin_workloads::WorkloadProfile;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Wraps a [`CellRunner`] with a span around every `run_cell`, and keeps
/// each completed outcome for the journal replay.
struct Traced {
    inner: Arc<dyn CellRunner>,
    recorder: Arc<Recorder>,
    name: &'static str,
    parent: SpanId,
    outcomes: Mutex<Vec<(Cell, CellOutcome)>>,
}

impl Traced {
    fn new(
        inner: Arc<dyn CellRunner>,
        recorder: &Arc<Recorder>,
        name: &'static str,
        parent: SpanId,
    ) -> Arc<Traced> {
        Arc::new(Traced {
            inner,
            recorder: Arc::clone(recorder),
            name,
            parent,
            outcomes: Mutex::new(Vec::new()),
        })
    }

    fn outcomes(&self) -> Vec<(Cell, CellOutcome)> {
        self.outcomes
            .lock()
            .expect("outcome list poisoned by a panicking cell")
            .clone()
    }
}

impl CellRunner for Traced {
    fn run_cell(
        &self,
        profile: &WorkloadProfile,
        cell: &Cell,
        config: &SweepConfig,
    ) -> Result<CellOutcome, CellFailure> {
        let out = self.recorder.time(self.name, Some(self.parent), |_| {
            self.inner.run_cell(profile, cell, config)
        });
        if let Ok(outcome) = &out {
            self.outcomes
                .lock()
                .expect("outcome list poisoned by a panicking cell")
                .push((cell.clone(), outcome.clone()));
        }
        out
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }

    fn handles_deadline(&self) -> bool {
        self.inner.handles_deadline()
    }
}

/// Run a supervised sweep inside a `supervise.run` span whose children
/// are the cell spans of `inner` (named `cell_span`).
fn supervised(
    rec: &Arc<Recorder>,
    parent: SpanId,
    inner: Arc<dyn CellRunner>,
    cell_span: &'static str,
    configure: impl FnOnce(SuiteSupervisor) -> SuiteSupervisor,
    profiles: &[WorkloadProfile],
    sweep: &SweepConfig,
) -> Result<(Vec<SweepResult>, MetricsRegistry, Arc<Traced>), String> {
    rec.time("supervise.run", Some(parent), |id| {
        let traced = Traced::new(inner, rec, cell_span, id);
        let runner: Arc<dyn CellRunner> = traced.clone();
        let supervisor =
            configure(SuiteSupervisor::new(SupervisorPolicy::default()).with_runner(runner));
        let report = supervisor.run(profiles, sweep).map_err(|e| e.to_string())?;
        if !report.is_clean() {
            return Err(report.quarantine_summary());
        }
        Ok((report.results, report.metrics, traced))
    })
}

/// Record how many of `traced`'s cells were infeasible at their heap.
fn count_infeasible(traced: &Traced, v: &mut Values) {
    let n = traced
        .outcomes()
        .iter()
        .filter(|(_, o)| o.infeasible.is_some())
        .count();
    v.insert("simulate.infeasible", n as f64);
}

fn profiles(order: &Order) -> Vec<WorkloadProfile> {
    order
        .suite
        .iter()
        .filter_map(|n| chopin_workloads::suite::by_name(n))
        .collect()
}

/// Per-layer values measured in one repetition.
type Values = BTreeMap<&'static str, f64>;

/// What one traced repetition produced besides its spans.
struct RepOut {
    values: Values,
    verdict: Verdict,
    /// Spans that make up the workload itself (not measurement legs).
    legs: Vec<SpanId>,
    /// CPU seconds of this process and its children over those legs.
    legs_cpu_s: f64,
}

/// Time `f` `n` times; the median wall seconds of one call.
fn median_time(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// A leg of the workload: spanned, with its CPU counted.
fn leg<T>(
    rec: &Recorder,
    root: SpanId,
    name: &str,
    out: &mut RepOut,
    f: impl FnOnce(SpanId) -> T,
) -> T {
    let cpu = sys::cpu_s();
    let value = rec.time(name, Some(root), |id| {
        out.legs.push(id);
        f(id)
    });
    out.legs_cpu_s += sys::cpu_s() - cpu;
    value
}

fn figures(
    rec: &Arc<Recorder>,
    root: SpanId,
    order: &Order,
    reference: &Reference,
    out: &mut RepOut,
) -> Result<(), String> {
    let sweep = Workload::Figures.sweep();
    let profiles = profiles(order);
    let (lbo_text_out, lbo_cells) = leg(rec, root, "lbo", out, |id| {
        let (results, _, traced) = supervised(
            rec,
            id,
            Arc::new(SweepCellRunner::new()),
            "simulate.cell",
            |s| s,
            &profiles,
            &sweep,
        )?;
        let experiment = rec.time("lbo.analysis", Some(id), |_| {
            let analyse = |clock| -> Result<Vec<LboAnalysis>, String> {
                results
                    .iter()
                    .map(|s| LboAnalysis::compute(&s.samples, clock).map_err(|e| e.to_string()))
                    .collect()
            };
            Ok::<_, String>(LboExperiment {
                wall: analyse(Clock::Wall)?,
                task: analyse(Clock::Task)?,
                sweeps: results,
                spans: Vec::new(),
            })
        })?;
        let text = rec.time("render.lbo", Some(id), |_| lbo_text(&experiment));
        Ok::<_, String>((text, traced))
    })?;
    count_infeasible(&lbo_cells, &mut out.values);
    let lbo_cells = lbo_cells.outcomes().len() as u64;
    out.verdict
        .absorb(reference.check(workload::Expect::Lbo, lbo_cells, true, &lbo_text_out));
    let latency = leg(rec, root, "latency", out, |id| {
        let mut text = String::new();
        for bench in &order.latency {
            let exp = rec
                .time("simulate.latency", Some(id), |_| {
                    LatencyExperiment::run(bench, &LATENCY_HEAPS)
                })
                .map_err(|e| e.to_string())?;
            text.push_str(&rec.time("render.latency", Some(id), |_| latency_text(&exp)));
        }
        Ok::<_, String>(text)
    })?;
    let latency_cells = (order.latency.len() * LATENCY_CELLS_PER_BENCHMARK) as u64;
    out.verdict
        .absorb(reference.check(workload::Expect::Latency, latency_cells, true, &latency));
    let pca = leg(rec, root, "pca", out, |id| {
        rec.time("render.pca", Some(id), |_| chopin_harness::pca_figure())
    })
    .map_err(|e| e.to_string())?;
    out.verdict
        .absorb(reference.check(workload::Expect::Pca, 1, true, &(pca + "\n")));
    let table2 = leg(rec, root, "table2", out, |id| {
        rec.time("render.table2", Some(id), |_| chopin_harness::table2())
    });
    out.verdict
        .absorb(reference.check(workload::Expect::Table2, 1, true, &(table2 + "\n")));
    Ok(())
}

/// Sort captured outcomes into the supervisor's schedule order.
fn schedule_order(
    order: &Order,
    sweep: &SweepConfig,
    mut outcomes: Vec<(Cell, CellOutcome)>,
) -> Vec<(Cell, CellOutcome)> {
    let rank = |c: &Cell| {
        (
            order.suite.iter().position(|b| *b == c.benchmark),
            sweep.collectors.iter().position(|k| *k == c.collector),
            sweep
                .heap_factors
                .iter()
                .position(|f| f.to_bits() == c.heap_factor.to_bits()),
        )
    };
    outcomes.sort_by_key(|(c, _)| rank(c));
    outcomes
}

fn key(cell: &Cell) -> CellKey {
    CellKey {
        benchmark: cell.benchmark.clone(),
        collector: cell.collector,
        heap_factor: cell.heap_factor,
    }
}

/// Fsync a file of `len` bytes in `dir`; the seconds `sync_all` took.
fn fsync_probe(dir: &Path, len: u64) -> Result<f64, String> {
    let path = dir.join("fsync.probe");
    let mut file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let chunk = vec![b'x'; 64 * 1024];
    let mut left = len;
    while left > 0 {
        let n = left.min(chunk.len() as u64) as usize;
        file.write_all(&chunk[..n]).map_err(|e| e.to_string())?;
        left -= n as u64;
    }
    let start = Instant::now();
    file.sync_all().map_err(|e| e.to_string())?;
    Ok(start.elapsed().as_secs_f64())
}

/// Every this many records the replay also times an fsync of a file of
/// the journal's size, which estimates the fsync share of `record`.
const FSYNC_PROBE_STRIDE: usize = 10;

fn journal(
    rec: &Arc<Recorder>,
    root: SpanId,
    order: &Order,
    reference: &Reference,
    work: &Path,
    out: &mut RepOut,
) -> Result<(), String> {
    let sweep = Workload::Journal.sweep();
    let profiles = profiles(order);
    let path = work.join("traced.journal");
    let _ = std::fs::remove_file(&path);
    let (results, _, traced) = leg(rec, root, "sweep", out, |id| {
        supervised(
            rec,
            id,
            Arc::new(SweepCellRunner::new()),
            "simulate.cell",
            |s| s.with_journal(&path),
            &profiles,
            &sweep,
        )
    })?;
    out.verdict
        .absorb(reference.check(workload::Expect::Csv, 0, true, &csv_text(&results)));
    count_infeasible(&traced, &mut out.values);
    let (resumed, _, _) = leg(rec, root, "resume", out, |id| {
        supervised(
            rec,
            id,
            Arc::new(SweepCellRunner::new()),
            "simulate.cell",
            |s| s.with_journal(&path).resume(true),
            &profiles,
            &sweep,
        )
    })?;
    out.verdict
        .absorb(reference.check(workload::Expect::Csv, 0, true, &csv_text(&resumed)));

    // Measurement legs: the journal's read path on the completed file,
    // then a replay of every record through `Journal::record`.
    let loaded = rec.time("journal.load", Some(root), |_| {
        let load_s = median_time(5, || {
            black_box(Journal::load(&path).ok());
        });
        Journal::load(&path)
            .map(|j| (j, load_s))
            .map_err(|e| e.to_string())
    })?;
    let (loaded, load_s) = loaded;
    let entries = schedule_order(order, &sweep, traced.outcomes());
    let lookups: Vec<f64> = rec.time("journal.lookup", Some(root), |_| {
        entries
            .iter()
            .map(|(cell, _)| {
                let k = key(cell);
                let start = Instant::now();
                black_box(loaded.lookup(&k));
                start.elapsed().as_secs_f64()
            })
            .collect()
    });
    let replay_path = work.join("replay.journal");
    let (records, bytes, fsync_s, probed_s) = rec.time("journal.replay", Some(root), |id| {
        let mut journal =
            Journal::create(&replay_path, loaded.fingerprint()).map_err(|e| e.to_string())?;
        let mut records = Vec::with_capacity(entries.len());
        let (mut bytes, mut fsync_s, mut probed_s) = (0u64, 0.0, 0.0);
        for (i, (cell, outcome)) in entries.iter().enumerate() {
            let entry = JournalEntry {
                key: key(cell),
                record: CellRecord {
                    samples: outcome.samples.clone(),
                    infeasible: outcome.infeasible.clone(),
                },
                provenance: None,
            };
            let open = rec.open("journal.record", Some(id));
            journal.record(entry).map_err(|e| e.to_string())?;
            let took = rec.close(open);
            records.push(took);
            let len = std::fs::metadata(&replay_path)
                .map_err(|e| e.to_string())?
                .len();
            bytes += len;
            if i % FSYNC_PROBE_STRIDE == 0 {
                fsync_s += rec.time("journal.fsync_probe", Some(id), |_| fsync_probe(work, len))?;
                probed_s += took;
            }
        }
        Ok::<_, String>((records, bytes, fsync_s, probed_s))
    })?;
    let _ = std::fs::remove_file(work.join("fsync.probe"));
    let v = &mut out.values;
    v.insert("journal.records", records.len() as f64);
    v.insert("journal.record.busy_s", records.iter().sum());
    v.insert("journal.record_p50_us", quantile(&records, 0.5) * 1e6);
    v.insert("journal.record_p99_us", quantile(&records, 0.99) * 1e6);
    v.insert("journal.bytes_written_mb", bytes as f64 / (1024.0 * 1024.0));
    v.insert(
        "journal.fsync_share",
        if probed_s > 0.0 {
            fsync_s / probed_s
        } else {
            0.0
        },
    );
    v.insert("journal.load_ms", load_s * 1e3);
    v.insert("journal.lookup_p50_us", quantile(&lookups, 0.5) * 1e6);
    Ok(())
}

fn isolated(
    rec: &Arc<Recorder>,
    root: SpanId,
    order: &Order,
    reference: &Reference,
    out: &mut RepOut,
) -> Result<(), String> {
    let sweep = Workload::Isolated.sweep();
    let profiles = profiles(order);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let process = Arc::new(ProcessCellRunner::new(
        exe,
        SandboxPolicy::default(),
        SupervisorPolicy::default().cell_deadline_ms,
        None,
        None,
    ));
    let (results, _, _) = leg(rec, root, "process", out, |id| {
        supervised(
            rec,
            id,
            process.clone(),
            "spawn.cell",
            |s| s,
            &profiles,
            &sweep,
        )
    })?;
    out.verdict
        .absorb(reference.check(workload::Expect::Csv, 0, true, &csv_text(&results)));
    // Measurement leg: the same cells inline, so spawn time can be told
    // apart from the simulation it wraps.
    let (inline, _, traced) = rec.time("inline", Some(root), |id| {
        supervised(
            rec,
            id,
            Arc::new(SweepCellRunner::new()),
            "simulate.cell",
            |s| s,
            &profiles,
            &sweep,
        )
    })?;
    out.verdict
        .absorb(reference.check(workload::Expect::Csv, 0, true, &csv_text(&inline)));
    count_infeasible(&traced, &mut out.values);
    out.values
        .insert("spawn.crashes", process.take_reports().len() as f64);
    Ok(())
}

fn fleet(
    rec: &Arc<Recorder>,
    root: SpanId,
    order: &Order,
    reference: &Reference,
    out: &mut RepOut,
) -> Result<(), String> {
    let sweep = Workload::Fleet.sweep();
    let profiles = profiles(order);
    let (results, metrics, _) = leg(rec, root, "fleet", out, |id| {
        supervised(
            rec,
            id,
            Arc::new(SweepCellRunner::new()),
            "simulate.cell",
            |s| s.with_fleet(Some(FleetConfig::new(2))),
            &profiles,
            &sweep,
        )
    })?;
    out.verdict
        .absorb(reference.check(workload::Expect::Csv, 0, true, &csv_text(&results)));
    // Measurement leg: the same matrix thread-supervised, the baseline
    // the fleet's transport overhead is measured against.
    let (threaded, _, traced) = rec.time("threaded", Some(root), |id| {
        supervised(
            rec,
            id,
            Arc::new(SweepCellRunner::new()),
            "simulate.cell",
            |s| s,
            &profiles,
            &sweep,
        )
    })?;
    out.verdict
        .absorb(reference.check(workload::Expect::Csv, 0, true, &csv_text(&threaded)));
    count_infeasible(&traced, &mut out.values);
    let cells = (profiles.len() * sweep.cell_count()) as f64;
    let v = &mut out.values;
    v.insert(
        "transport.leases_per_cell",
        metrics.counter("fleet.leases.issued") as f64 / cells,
    );
    v.insert(
        "transport.expired",
        metrics.counter("fleet.leases.expired") as f64,
    );
    Ok(())
}

/// A representative lease payload: one cell's CSV rows.
fn sample_payload(reference_rows: usize) -> String {
    (0..reference_rows)
        .map(|i| {
            format!(
                "fop,G1,{}.5,0.123456789{i},0.98765432{i},0.11111{i},0.9{i}",
                i + 1
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Unit costs of layers that every workload shares, timed around single
/// public calls.
fn probes(
    rec: &Recorder,
    root: SpanId,
    workload: Workload,
    order: &Order,
    v: &mut Values,
) -> Result<(), String> {
    rec.time("probes", Some(root), |_| {
        // preflight: compile and analyze the workload's plan.
        let cmd = workload::commands(workload, order, "probe.journal").swap_remove(0);
        let args = Args::parse(cmd.args.iter().cloned());
        let (name, methodology, benchmarks, sweep) = match workload {
            Workload::Figures => ("lbo", Methodology::Lbo, &order.suite, workload.sweep()),
            _ => ("runbms", Methodology::Sweep, &order.suite, workload.sweep()),
        };
        let plan_s = median_time(5, || {
            if let Ok(plan) = preflight::plan_for_args(name, methodology, benchmarks, &sweep, &args)
            {
                black_box(preflight::preflight_report(&plan));
            }
        });
        v.insert("preflight.plan_ms", plan_s * 1e3);

        // observe: one observed cell against the same cell unobserved.
        let profile = chopin_workloads::suite::by_name("fop").ok_or("fop missing")?;
        let observed = median_time(3, || {
            black_box(chopin_harness::observe_benchmark("fop", CollectorKind::G1, 2.0).ok());
        });
        let plain = median_time(3, || {
            black_box(
                BenchmarkRunner::for_profile(profile.clone())
                    .collector(CollectorKind::G1)
                    .heap_factor(2.0)
                    .iterations(1)
                    .run()
                    .ok(),
            );
        });
        v.insert("observe.tee_ratio", observed / plain);
        const INCS: usize = 200_000;
        let mut registry = MetricsRegistry::new();
        let start = Instant::now();
        for _ in 0..INCS {
            registry.inc(black_box("supervisor.cells.completed"), 1);
        }
        v.insert(
            "observe.metrics_inc_ns",
            start.elapsed().as_secs_f64() * 1e9 / INCS as f64,
        );

        // transport: one Lease/Done frame pair through render + parse.
        const FRAMES: usize = 5_000;
        let payload = sample_payload(3);
        let start = Instant::now();
        for i in 0..FRAMES as u64 {
            let lease = FleetFrame::Lease {
                lease: i,
                attempt: 1,
                payload: payload.clone(),
            };
            let done = FleetFrame::Done {
                worker: 1,
                lease: i,
                coord: 0x5eed,
                payload: payload.clone(),
            };
            black_box(protocol::parse(&protocol::render(&lease)));
            black_box(protocol::parse(&protocol::render(&done)));
        }
        v.insert(
            "transport.frame_us",
            start.elapsed().as_secs_f64() * 1e6 / FRAMES as f64,
        );

        // lease: grant + complete over a fresh table of one sweep's cells.
        let cells = order.suite.len() * Workload::Fleet.sweep().cell_count();
        let mut table = LeaseTable::new(
            (0..cells as u64).collect(),
            SupervisorPolicy::default(),
            60_000,
        );
        let start = Instant::now();
        let mut cycles = 0u64;
        while let Grant::Lease(grant) = table.grant(0, 0) {
            black_box(table.complete(grant.lease, payload.clone()));
            cycles += 1;
        }
        v.insert(
            "lease.cycle_us",
            start.elapsed().as_secs_f64() * 1e6 / cycles.max(1) as f64,
        );

        // merge: two workers' offers for every cell.
        let start = Instant::now();
        for cell in 0..cells as u64 {
            let mut merge = CellMerge::new();
            black_box(merge.offer(1, cell % 2, payload.clone()));
            black_box(merge.offer(1, 1 - cell % 2, payload.clone()));
        }
        v.insert(
            "merge.offer_us",
            start.elapsed().as_secs_f64() * 1e6 / (2 * cells) as f64,
        );
        Ok(())
    })
}

/// Derive the span-based metrics of repetition `run`.
fn span_metrics(spans: &[Span], run: u64, rep: &RepOut, v: &mut Values) {
    let durations = |name| {
        named(spans, run, name)
            .map(Span::duration)
            .collect::<Vec<f64>>()
    };
    let cells = durations("simulate.cell");
    let latency = durations("simulate.latency");
    let sim_busy: f64 = cells.iter().sum::<f64>() + latency.iter().sum::<f64>();
    let spawn = durations("spawn.cell");
    let latency_cells = latency.len() * LATENCY_CELLS_PER_BENCHMARK;
    v.insert("simulate.cells", (cells.len() + latency_cells) as f64);
    v.insert("simulate.busy_s", sim_busy);
    v.insert("simulate.cell_p50_ms", quantile(&cells, 0.5) * 1e3);
    v.insert("simulate.cell_p99_ms", quantile(&cells, 0.99) * 1e3);
    v.insert("spawn.cells", spawn.len() as f64);
    v.insert(
        "spawn.busy_s",
        if spawn.is_empty() {
            0.0
        } else {
            spawn.iter().sum::<f64>() - sim_busy
        },
    );
    v.insert("spawn.cell_p50_ms", quantile(&spawn, 0.5) * 1e3);
    v.insert("spawn.cell_p99_ms", quantile(&spawn, 0.99) * 1e3);
    for (metric, name) in [
        ("render.lbo_ms", "render.lbo"),
        ("render.latency_ms", "render.latency"),
        ("render.pca_ms", "render.pca"),
    ] {
        v.insert(metric, durations(name).iter().sum::<f64>() * 1e3);
    }

    // The workload's first supervised call: its self time is the
    // supervisor's own work (journal writes included); idle is worker
    // capacity not spent in a cell.
    let legs: Vec<&Span> = spans.iter().filter(|s| rep.legs.contains(&s.id)).collect();
    let main_run = spans
        .iter()
        .find(|s| s.name == "supervise.run" && s.parent.is_some_and(|p| rep.legs.contains(&p)));
    if let Some(run_span) = main_run {
        let cell_time: f64 = spans::children(spans, run_span.id)
            .map(Span::duration)
            .sum();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        v.insert("supervise.self_s", spans::self_time(spans, run_span));
        v.insert(
            "supervise.idle_s",
            (workers * run_span.duration() - cell_time).max(0.0),
        );
    }

    // Lower-bound overheads of the harness over the bare simulation of
    // the same cells: wall against the wall the simulation spans cover
    // (parallel cells count once), CPU against their summed thread time.
    let legs_wall: f64 = legs.iter().map(|s| s.duration()).sum();
    let sim_spans: Vec<&Span> = spans
        .iter()
        .filter(|s| s.run == run && (s.name == "simulate.cell" || s.name == "simulate.latency"))
        .collect();
    let sim_wall = spans::covered(sim_spans.iter().map(|s| (s.start_s, s.end_s)));
    v.insert("traced.wall_s", legs_wall);
    v.insert("harness.lbo_wall", (legs_wall - sim_wall) / sim_wall);
    v.insert("harness.lbo_cpu", (rep.legs_cpu_s - sim_busy) / sim_busy);
    if let (Some(fleet), Some(threaded)) = (
        named(spans, run, "fleet").next(),
        named(spans, run, "threaded").next(),
    ) {
        v.insert(
            "transport.overhead_s",
            fleet.duration() - threaded.duration(),
        );
    }
    let infeasible = v.get("simulate.infeasible").copied().unwrap_or(0.0);
    v.remove("simulate.infeasible");
    v.insert(
        "simulate.infeasible_frac",
        infeasible / cells.len().max(1) as f64,
    );
}

/// The fleet-only transport metrics. Only the `fleet` workload, which
/// `BENCHMARK.json` leaves out, exercises them, so they are printed in
/// its table and not reported as layer metrics.
const FLEET_METRICS: [(&str, &str); 3] = [
    ("transport.overhead_s", "s"),
    ("transport.leases_per_cell", "1"),
    ("transport.expired", "count"),
];

/// Every per-layer metric, in print order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 34] = [
    ("simulate.cells", "count"),
    ("simulate.busy_s", "s"),
    ("simulate.cell_p50_ms", "ms"),
    ("simulate.cell_p99_ms", "ms"),
    ("simulate.infeasible_frac", "1"),
    ("supervise.self_s", "s"),
    ("supervise.idle_s", "s"),
    ("journal.records", "count"),
    ("journal.record.busy_s", "s"),
    ("journal.record_p50_us", "us"),
    ("journal.record_p99_us", "us"),
    ("journal.bytes_written_mb", "MB"),
    ("journal.fsync_share", "1"),
    ("journal.load_ms", "ms"),
    ("journal.lookup_p50_us", "us"),
    ("spawn.cells", "count"),
    ("spawn.busy_s", "s"),
    ("spawn.cell_p50_ms", "ms"),
    ("spawn.cell_p99_ms", "ms"),
    ("spawn.crashes", "count"),
    ("transport.frame_us", "us"),
    ("lease.cycle_us", "us"),
    ("merge.offer_us", "us"),
    ("observe.tee_ratio", "1"),
    ("observe.metrics_inc_ns", "ns"),
    ("render.lbo_ms", "ms"),
    ("render.latency_ms", "ms"),
    ("render.pca_ms", "ms"),
    ("preflight.plan_ms", "ms"),
    ("harness.lbo_wall", "1"),
    ("harness.lbo_cpu", "1"),
    ("traced.wall_s", "s"),
    ("traced.spans", "count"),
    ("traced.reps", "count"),
];

/// The layer each workload was chosen to load, and its wall-equivalent
/// cost: parallel layers are divided by the worker count, serialized
/// ones (the journal behind its mutex, the transport's extra wall) are
/// not.
fn dominant(v: &Values) -> (&'static str, f64) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let get = |k| v.get(k).copied().unwrap_or(0.0);
    let render = (get("render.lbo_ms") + get("render.latency_ms") + get("render.pca_ms")) / 1e3;
    [
        ("simulate", get("simulate.busy_s") / workers),
        ("journal", get("journal.record.busy_s")),
        ("spawn", get("spawn.busy_s") / workers),
        ("transport", get("transport.overhead_s")),
        ("render", render),
    ]
    .into_iter()
    .max_by(|a, b| a.1.total_cmp(&b.1))
    .unwrap_or(("none", 0.0))
}

fn one_rep(
    rec: &Arc<Recorder>,
    run: u64,
    workload: Workload,
    order: &Order,
    reference: &Reference,
    work: &Path,
) -> Result<RepOut, String> {
    rec.set_run(run);
    let mut out = RepOut {
        values: Values::new(),
        verdict: Verdict::default(),
        legs: Vec::new(),
        legs_cpu_s: 0.0,
    };
    let root = rec.open("workload", None);
    let root_id = root.id;
    match workload {
        Workload::Figures => figures(rec, root_id, order, reference, &mut out)?,
        Workload::Journal => journal(rec, root_id, order, reference, work, &mut out)?,
        Workload::Isolated => isolated(rec, root_id, order, reference, &mut out)?,
        Workload::Fleet => fleet(rec, root_id, order, reference, &mut out)?,
    }
    probes(rec, root_id, workload, order, &mut out.values)?;
    rec.close(root);
    Ok(out)
}

/// Run the traced workload repeatedly for `seconds` (at least once) and
/// report the per-layer medians; writes the Perfetto trace under
/// `out_dir`.
pub fn report(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    work: &Path,
) -> Result<Report, String> {
    let order = Order::from_seed(seed);
    let reference = Reference::build(workload, &order)?;
    let rec = Arc::new(Recorder::new());
    let mut reps: Vec<Values> = Vec::new();
    let mut verdict = Verdict::default();
    let mut run_names = Vec::new();
    let mut leftovers = false;
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let run = reps.len() as u64;
        run_names.push(format!("{} rep {run} (seed {seed})", workload.name()));
        let mut out = one_rep(&rec, run, workload, &order, &reference, work)?;
        let spans = rec.spans();
        let mut values = std::mem::take(&mut out.values);
        span_metrics(&spans, run, &out, &mut values);
        values.insert(
            "traced.spans",
            spans.iter().filter(|s| s.run == run).count() as f64,
        );
        verdict.absorb(out.verdict);
        reps.push(values);
        // The library spawned sandbox children and fleet workers as
        // children of this process; none may outlive the repetition.
        if timed::reap_descendants(None, &mut sys::Usage::default())? {
            leftovers = true;
            eprintln!("perfbench: a process outlived traced repetition {run}");
        }
    }
    let spans = rec.spans();
    let trace_path = out_dir.join(format!("trace-{}-seed{seed}.json", workload.name()));
    std::fs::write(&trace_path, spans::to_trace(&spans, &run_names).to_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!(
        "perfbench: wrote {} ({} spans)",
        trace_path.display(),
        spans.len()
    );

    let mut medians = Values::new();
    for (name, _) in LAYER_METRICS.iter().chain(&FLEET_METRICS) {
        let values: Vec<f64> = reps
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        medians.insert(name, median(&values));
    }
    medians.insert("traced.reps", reps.len() as f64);
    let (layer, cost) = dominant(&medians);
    eprintln!(
        "perfbench: dominant layer on {}: {layer} ({cost:.3} s wall-equivalent)",
        workload.name()
    );
    if let Some(detail) = &verdict.detail {
        eprintln!("perfbench: output check: {detail}");
    }
    Ok(Report {
        correct: verdict.failed == 0 && verdict.detail.is_none() && !leftovers,
        attempted: verdict.checked,
        failed: verdict.failed,
        metrics: LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric::new(name, medians[name], unit))
            .collect(),
        notes: FLEET_METRICS
            .iter()
            .filter(|_| workload == Workload::Fleet)
            .map(|&(name, unit)| Metric::new(name, medians[name], unit))
            .chain([Metric::new("dominant_layer_s", cost, layer)])
            .collect(),
    })
}
