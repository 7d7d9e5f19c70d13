//! Reference outputs, computed once per benchmark invocation through the
//! library and outside every timed region, and the comparison of each
//! command's standard output against them.

use crate::workload::{Expect, Order, Workload, LATENCY_HEAPS};
use chopin_core::latency::SmoothingWindow;
use chopin_core::lbo::{Clock, RunSample};
use chopin_core::sweep::{SweepConfig, SweepResult};
use chopin_harness::{LatencyExperiment, LboExperiment};
use chopin_runtime::time::SimDuration;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The header line every `runbms` CSV starts with.
const CSV_HEADER: &str =
    "benchmark,collector,heap_factor,wall_s,task_s,wall_distillable_s,task_distillable_s";

/// What each command of a workload must print.
#[derive(Debug, Default)]
pub struct Reference {
    /// `runbms` rows per cell key (`benchmark,collector,heap_factor`),
    /// including cells with no rows (infeasible at that heap).
    csv: BTreeMap<String, Vec<String>>,
    lbo: String,
    latency: String,
    pca: String,
    table2: String,
}

/// The outcome of checking one command's output.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Output units compared: sweep cells, or 1 for a single figure.
    pub checked: u64,
    /// Units whose output was missing or differed.
    pub failed: u64,
    /// The first difference, for the report.
    pub detail: Option<String>,
}

impl Verdict {
    /// Fold another check into this one; the first difference is kept.
    pub fn absorb(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.failed += other.failed;
        if self.detail.is_none() {
            self.detail = other.detail;
        }
    }
}

fn cell_key(benchmark: &str, collector: impl std::fmt::Display, factor: f64) -> String {
    format!("{benchmark},{collector},{factor}")
}

/// One `runbms` CSV row.
fn csv_row(benchmark: &str, s: &RunSample) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        benchmark,
        s.collector,
        s.heap_factor,
        s.wall_s,
        s.task_s,
        s.wall_distillable_s,
        s.task_distillable_s
    )
}

/// The CSV `runbms` prints for a sweep.
pub fn csv_text(results: &[SweepResult]) -> String {
    let mut out = format!("{CSV_HEADER}\n");
    for r in results {
        for s in &r.samples {
            let _ = writeln!(out, "{}", csv_row(&r.benchmark, s));
        }
    }
    out
}

/// The CSV rows of a sweep, exactly as `runbms` prints them, grouped by
/// cell.
fn csv_cells(results: &[SweepResult], config: &SweepConfig) -> BTreeMap<String, Vec<String>> {
    let mut cells = BTreeMap::new();
    for result in results {
        for &collector in &config.collectors {
            for &factor in &config.heap_factors {
                cells.insert(cell_key(&result.benchmark, collector, factor), Vec::new());
            }
        }
        for s in &result.samples {
            cells
                .entry(cell_key(&result.benchmark, s.collector, s.heap_factor))
                .or_insert_with(Vec::new)
                .push(csv_row(&result.benchmark, s));
        }
    }
    cells
}

fn profiles(names: &[String]) -> Result<Vec<chopin_workloads::WorkloadProfile>, String> {
    names
        .iter()
        .map(|n| chopin_workloads::suite::by_name(n).ok_or(format!("unknown benchmark `{n}`")))
        .collect()
}

/// What `lbo -b <order>` prints on standard output.
pub fn lbo_text(experiment: &LboExperiment) -> String {
    let mut out = String::new();
    for clock in [Clock::Wall, Clock::Task] {
        if let Ok(report) = experiment.render_geomean(clock) {
            let _ = writeln!(out, "{report}");
        }
    }
    for i in 0..experiment.sweeps.len() {
        let _ = writeln!(out, "{}", experiment.render_benchmark(i));
    }
    out
}

/// What `latency` prints on standard output for one benchmark.
pub fn latency_text(experiment: &LatencyExperiment) -> String {
    let mut out = String::new();
    for &factor in &LATENCY_HEAPS {
        for window in [
            SmoothingWindow::None,
            SmoothingWindow::Duration(SimDuration::from_millis(100)),
            SmoothingWindow::Full,
        ] {
            let _ = writeln!(out, "{}", experiment.render_panel(factor, window));
        }
    }
    let _ = writeln!(out, "{}", experiment.render_report());
    let _ = writeln!(out, "{}", experiment.render_pause_report());
    out
}

impl Reference {
    /// Compute the reference for `workload` with the benchmark `order`.
    ///
    /// # Errors
    ///
    /// A library call failed; the benchmark cannot check outputs.
    pub fn build(workload: Workload, order: &Order) -> Result<Reference, String> {
        let mut reference = Reference::default();
        let sweep = workload.sweep();
        match workload {
            Workload::Figures => {
                let lbo = LboExperiment::run(&order.suite, &sweep).map_err(|e| e.to_string())?;
                reference.lbo = lbo_text(&lbo);
                for bench in &order.latency {
                    let exp =
                        LatencyExperiment::run(bench, &LATENCY_HEAPS).map_err(|e| e.to_string())?;
                    reference.latency.push_str(&latency_text(&exp));
                }
                reference.pca = chopin_harness::pca_figure().map_err(|e| e.to_string())? + "\n";
                reference.table2 = chopin_harness::table2() + "\n";
            }
            Workload::Journal | Workload::Isolated | Workload::Fleet => {
                let outcome = chopin_harness::run_suite_sweeps(&profiles(&order.suite)?, &sweep);
                let results = outcome.into_result().map_err(|e| e.to_string())?;
                reference.csv = csv_cells(&results, &sweep);
            }
        }
        Ok(reference)
    }

    /// Compare a command's standard output with the reference. A CSV is
    /// checked cell by cell; a figure counts as `cells` units (at least
    /// one) that pass or fail together. A command that exited non-zero
    /// fails every unit it was to produce.
    pub fn check(&self, expect: Expect, cells: u64, exited_ok: bool, stdout: &str) -> Verdict {
        let units = cells.max(1);
        let mut verdict = match expect {
            Expect::Csv => self.check_csv(stdout),
            Expect::Lbo => whole(&self.lbo, stdout, units),
            Expect::Latency => whole(&self.latency, stdout, units),
            Expect::Pca => whole(&self.pca, stdout, units),
            Expect::Table2 => whole(&self.table2, stdout, units),
        };
        if !exited_ok {
            verdict.failed = verdict.checked;
            verdict
                .detail
                .get_or_insert_with(|| "non-zero exit".to_string());
        }
        verdict
    }

    fn check_csv(&self, stdout: &str) -> Verdict {
        let mut lines = stdout.lines();
        let mut verdict = Verdict {
            checked: self.csv.len() as u64,
            ..Verdict::default()
        };
        if lines.next() != Some(CSV_HEADER) {
            verdict.failed = verdict.checked;
            verdict.detail = Some("missing CSV header".to_string());
            return verdict;
        }
        let mut got: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for line in lines {
            let key_end = line
                .match_indices(',')
                .nth(2)
                .map(|(i, _)| i)
                .unwrap_or(line.len());
            got.entry(&line[..key_end]).or_default().push(line);
        }
        for (key, want) in &self.csv {
            let rows = got.remove(key.as_str()).unwrap_or_default();
            if rows != *want {
                verdict.failed += 1;
                verdict
                    .detail
                    .get_or_insert_with(|| format!("cell {key}: {rows:?} != {want:?}"));
            }
        }
        if let Some(key) = got.keys().next() {
            verdict
                .detail
                .get_or_insert_with(|| format!("row for a cell outside the matrix: {key}"));
        }
        verdict
    }
}

fn whole(want: &str, got: &str, units: u64) -> Verdict {
    let same = want == got;
    Verdict {
        checked: units,
        failed: if same { 0 } else { units },
        detail: (!same).then(|| first_difference(want, got)),
    }
}

fn first_difference(want: &str, got: &str) -> String {
    let line = want
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
    format!(
        "output differs from the library reference at line {} ({} vs {} lines)",
        line + 1,
        got.lines().count(),
        want.lines().count()
    )
}
