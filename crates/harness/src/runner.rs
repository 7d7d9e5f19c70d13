//! Parallel sweep execution across benchmarks.
//!
//! The artifact appendix automates experiments with `running-ng`; the
//! equivalent here fans benchmark sweeps out over worker threads. Each
//! individual simulated run is single-threaded and deterministic, so
//! cross-benchmark parallelism is free of measurement concerns (unlike on
//! real hardware, where co-running benchmarks would perturb each other —
//! one of the luxuries of simulation).
//!
//! A suite run never aborts on the first failing benchmark: every profile
//! is swept and the outcome carries the completed results alongside a
//! per-benchmark error summary ([`SuiteSweepOutcome`]). Callers that need
//! the complete suite (the figure/table pipelines, where a hole would
//! corrupt a geomean) collapse the outcome with
//! [`SuiteSweepOutcome::into_result`].

use crate::lock;
use crate::obs::SpanSink;
use chopin_core::sweep::{run_sweep, SweepConfig, SweepResult};
use chopin_core::BenchmarkError;
use chopin_workloads::WorkloadProfile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A benchmark whose sweep failed outright (configuration error — not an
/// OOM/thrash cell, which [`run_sweep`] records inside its result).
#[derive(Debug, Clone)]
pub struct SweepError {
    /// The benchmark whose sweep errored.
    pub benchmark: String,
    /// The error it raised.
    pub error: BenchmarkError,
}

/// Everything a suite sweep produced: completed results in input order
/// plus the benchmarks that failed, so one bad profile no longer discards
/// the rest of the suite's work.
#[derive(Debug, Clone, Default)]
pub struct SuiteSweepOutcome {
    /// Completed sweeps, in input order (failed benchmarks are absent).
    pub results: Vec<SweepResult>,
    /// Benchmarks whose sweep errored, in input order.
    pub errors: Vec<SweepError>,
}

impl SuiteSweepOutcome {
    /// Whether every benchmark completed.
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }

    /// One line per failed benchmark, or `None` when all completed.
    pub fn error_summary(&self) -> Option<String> {
        if self.errors.is_empty() {
            return None;
        }
        let lines: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("{}: {}", e.benchmark, e.error))
            .collect();
        Some(format!(
            "{} benchmark(s) failed to sweep:\n  {}",
            self.errors.len(),
            lines.join("\n  ")
        ))
    }

    /// Collapse to the strict all-or-first-error form for consumers that
    /// cannot use a partial suite (geomean pipelines).
    ///
    /// # Errors
    ///
    /// The first failed benchmark's [`BenchmarkError`], if any.
    pub fn into_result(self) -> Result<Vec<SweepResult>, BenchmarkError> {
        match self.errors.into_iter().next() {
            None => Ok(self.results),
            Some(first) => Err(first.error),
        }
    }
}

/// Run sweeps for every profile, in parallel, preserving input order.
///
/// Individual OOM/thrash cells are recorded inside each sweep result;
/// benchmarks that error outright land in [`SuiteSweepOutcome::errors`]
/// without aborting the remaining sweeps.
pub fn run_suite_sweeps(profiles: &[WorkloadProfile], config: &SweepConfig) -> SuiteSweepOutcome {
    run_suite_sweeps_spanned(profiles, config, &SpanSink::default())
}

/// [`run_suite_sweeps`] with a wall-time span recorded per benchmark sweep
/// into `spans` (the `--trace-out` harness track).
pub fn run_suite_sweeps_spanned(
    profiles: &[WorkloadProfile],
    config: &SweepConfig,
    spans: &SpanSink,
) -> SuiteSweepOutcome {
    if profiles.is_empty() {
        return SuiteSweepOutcome::default();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(profiles.len());

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<SweepResult, BenchmarkError>>>> =
        Mutex::new((0..profiles.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= profiles.len() {
                    break;
                }
                let name = format!("sweep:{}", profiles[i].name);
                let outcome = spans.time(&name, || run_sweep(&profiles[i], config));
                lock(&slots)[i] = Some(outcome);
            });
        }
    });

    let mut outcome = SuiteSweepOutcome::default();
    for (profile, slot) in profiles
        .iter()
        .zip(slots.into_inner().unwrap_or_else(PoisonError::into_inner))
    {
        match slot.expect("every index visited") {
            Ok(result) => outcome.results.push(result),
            Err(error) => outcome.errors.push(SweepError {
                benchmark: profile.name.to_string(),
                error,
            }),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_runtime::collector::CollectorKind;
    use chopin_workloads::{suite, SizeClass};

    #[test]
    fn empty_input_is_empty_output() {
        let out = run_suite_sweeps(&[], &SweepConfig::quick());
        assert!(out.results.is_empty());
        assert!(out.is_complete());
        assert!(out.error_summary().is_none());
    }

    #[test]
    fn parallel_sweeps_preserve_order_and_content() {
        let profiles = vec![
            suite::by_name("fop").unwrap(),
            suite::by_name("jython").unwrap(),
        ];
        let cfg = SweepConfig {
            collectors: vec![CollectorKind::G1],
            heap_factors: vec![2.0],
            invocations: 1,
            iterations: 1,
            size: SizeClass::Default,
        };
        let out = run_suite_sweeps(&profiles, &cfg).into_result().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].benchmark, "fop");
        assert_eq!(out[1].benchmark, "jython");
        assert!(!out[0].samples.is_empty());
    }

    #[test]
    fn spanned_sweeps_record_one_span_per_benchmark() {
        let profiles = vec![
            suite::by_name("fop").unwrap(),
            suite::by_name("jython").unwrap(),
        ];
        let cfg = SweepConfig {
            collectors: vec![CollectorKind::G1],
            heap_factors: vec![2.0],
            invocations: 1,
            iterations: 1,
            size: SizeClass::Default,
        };
        let sink = SpanSink::new();
        let out = run_suite_sweeps_spanned(&profiles, &cfg, &sink);
        assert!(out.is_complete());
        let mut names: Vec<String> = sink.spans().into_iter().map(|s| s.name).collect();
        names.sort();
        assert_eq!(names, vec!["sweep:fop", "sweep:jython"]);
    }

    #[test]
    fn parallel_equals_sequential() {
        // Determinism across the parallel runner: same samples as a direct
        // sequential sweep.
        let profile = suite::by_name("fop").unwrap();
        let cfg = SweepConfig {
            collectors: vec![CollectorKind::Parallel],
            heap_factors: vec![2.0, 4.0],
            invocations: 2,
            iterations: 1,
            size: SizeClass::Default,
        };
        let parallel = run_suite_sweeps(std::slice::from_ref(&profile), &cfg)
            .into_result()
            .unwrap();
        let sequential = run_sweep(&profile, &cfg).unwrap();
        assert_eq!(parallel[0].samples, sequential.samples);
    }

    #[test]
    fn a_failing_benchmark_does_not_discard_the_others() {
        // fop models no Large input size while jython does: at Large, the
        // fop sweep errors outright and jython's results must survive.
        let fop = suite::by_name("fop").unwrap();
        let jython = suite::by_name("jython").unwrap();
        assert!(fop.to_spec(SizeClass::Large).is_none());
        assert!(jython.to_spec(SizeClass::Large).is_some());

        let cfg = SweepConfig {
            collectors: vec![CollectorKind::G1],
            heap_factors: vec![2.0],
            invocations: 1,
            iterations: 1,
            size: SizeClass::Large,
        };
        let out = run_suite_sweeps(&[fop, jython], &cfg);
        assert!(!out.is_complete());
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].benchmark, "jython");
        assert!(!out.results[0].samples.is_empty());
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].benchmark, "fop");
        let summary = out.error_summary().unwrap();
        assert!(summary.contains("1 benchmark(s) failed"));
        assert!(summary.contains("fop"));
        assert!(out.clone().into_result().is_err());
    }
}
