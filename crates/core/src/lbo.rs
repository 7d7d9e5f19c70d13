//! The Lower-Bound Overhead (LBO) methodology of Cai et al. (§4.5, §6.2).
//!
//! "The key idea is to 'distill' a baseline that conservatively
//! approximates the ideal GC. The distilled baseline is then used as the
//! denominator in the LBO graphs, while the measured system forms the
//! numerator. We use Java's JVMTI interface to capture the
//! easily-attributable stop-the-world periods of the collectors. The
//! remainder is an approximation to the application costs. We then find
//! the lowest approximated application cost from among all collectors and
//! all heap sizes, and use that as the distilled cost."
//!
//! Because the distilled baseline still contains barrier taxes and other
//! woven-in costs, it *over*-estimates the ideal, so the reported overhead
//! is a *lower bound* — hence the name (pronounced *elbow*).

use chopin_analysis::ci::ConfidenceInterval;
use chopin_analysis::descriptive::geometric_mean;
use chopin_analysis::AnalysisError;
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::result::RunResult;
use std::collections::BTreeMap;
use std::fmt;

/// One run's contribution to an LBO analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSample {
    /// Which collector produced the sample.
    pub collector: CollectorKind,
    /// Heap size as a multiple of the nominal minimum heap (H2's axis).
    pub heap_factor: f64,
    /// Wall-clock time of the timed iteration, seconds.
    pub wall_s: f64,
    /// Task clock (total CPU across all threads), seconds.
    pub task_s: f64,
    /// Wall time minus stop-the-world pauses (the JVMTI-attributable
    /// subtraction), seconds.
    pub wall_distillable_s: f64,
    /// Task clock minus GC CPU burned during stop-the-world phases,
    /// seconds.
    pub task_distillable_s: f64,
}

impl RunSample {
    /// Extract an LBO sample from a run result.
    pub fn from_result(result: &RunResult, heap_factor: f64) -> RunSample {
        RunSample {
            collector: result.config().collector(),
            heap_factor,
            wall_s: result.wall_time().as_secs_f64(),
            task_s: result.task_clock().as_secs_f64(),
            wall_distillable_s: result.wall_minus_stw().as_secs_f64(),
            task_distillable_s: result.task_clock_minus_stw().as_secs_f64(),
        }
    }
}

/// Which clock an LBO curve is computed against (recommendation O2 asks
/// for both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Clock {
    /// End-to-end wall-clock time (Figure 1(a)).
    Wall,
    /// Total CPU time across all threads — Linux `perf` `TASK_CLOCK`
    /// (Figure 1(b)).
    Task,
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clock::Wall => write!(f, "wall"),
            Clock::Task => write!(f, "task"),
        }
    }
}

/// One point of an LBO curve: the mean normalized overhead with its 95 %
/// confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LboPoint {
    /// Heap size in multiples of the nominal minimum heap.
    pub heap_factor: f64,
    /// Normalized overhead (≥ 1.0 up to sampling noise): measured cost
    /// divided by the distilled baseline.
    pub overhead: ConfidenceInterval,
}

/// The LBO curves of one benchmark for one clock.
#[derive(Debug, Clone, PartialEq)]
pub struct LboAnalysis {
    clock: Clock,
    distilled_s: f64,
    curves: BTreeMap<CollectorKind, Vec<LboPoint>>,
}

impl LboAnalysis {
    /// Compute the LBO analysis of `samples` for `clock`.
    ///
    /// Samples must cover at least one (collector, heap) cell with at least
    /// one invocation; cells with multiple invocations get non-degenerate
    /// confidence intervals (single-invocation cells get zero-width ones).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Empty`] when `samples` is empty and
    /// [`AnalysisError::NotFinite`] if any sample is non-positive.
    pub fn compute(samples: &[RunSample], clock: Clock) -> Result<LboAnalysis, AnalysisError> {
        if samples.is_empty() {
            return Err(AnalysisError::Empty);
        }
        let measured = |s: &RunSample| match clock {
            Clock::Wall => s.wall_s,
            Clock::Task => s.task_s,
        };
        let distillable = |s: &RunSample| match clock {
            Clock::Wall => s.wall_distillable_s,
            Clock::Task => s.task_distillable_s,
        };
        if samples
            .iter()
            .any(|s| !(measured(s) > 0.0 && distillable(s) > 0.0))
        {
            return Err(AnalysisError::NotFinite {
                context: "lbo sample (times must be positive)",
            });
        }

        // Group by (collector, heap factor) cell.
        let mut cells: BTreeMap<(CollectorKind, u64), Vec<&RunSample>> = BTreeMap::new();
        for s in samples {
            cells
                .entry((s.collector, factor_key(s.heap_factor)))
                .or_default()
                .push(s);
        }

        // Distill: the lowest mean approximated application cost across all
        // collectors and all heap sizes.
        let distilled_s = cells
            .values()
            .map(|runs| runs.iter().map(|s| distillable(s)).sum::<f64>() / runs.len() as f64)
            .fold(f64::INFINITY, f64::min);

        let mut curves: BTreeMap<CollectorKind, Vec<LboPoint>> = BTreeMap::new();
        for ((collector, _), runs) in &cells {
            let overheads: Vec<f64> = runs.iter().map(|s| measured(s) / distilled_s).collect();
            let overhead = if overheads.len() >= 2 {
                ConfidenceInterval::from_samples(&overheads)?
            } else {
                ConfidenceInterval::from_samples(&[overheads[0], overheads[0]])?
            };
            curves.entry(*collector).or_default().push(LboPoint {
                heap_factor: runs[0].heap_factor,
                overhead,
            });
        }
        for points in curves.values_mut() {
            points.sort_by(|a, b| a.heap_factor.total_cmp(&b.heap_factor));
        }

        Ok(LboAnalysis {
            clock,
            distilled_s,
            curves,
        })
    }

    /// Which clock the analysis used.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The distilled baseline cost in seconds — the denominator of every
    /// curve.
    pub fn distilled_s(&self) -> f64 {
        self.distilled_s
    }

    /// The curve for one collector, if it has any completed runs.
    pub fn curve(&self, collector: CollectorKind) -> Option<&[LboPoint]> {
        self.curves.get(&collector).map(|v| v.as_slice())
    }

    /// All curves, keyed by collector.
    pub fn curves(&self) -> &BTreeMap<CollectorKind, Vec<LboPoint>> {
        &self.curves
    }
}

/// Geometric-mean LBO across benchmarks (Figure 1): for each collector and
/// heap factor present in **every** per-benchmark analysis, the geomean of
/// the per-benchmark mean overheads.
///
/// "We only plot data points where the respective collector can run all
/// 22 benchmarks to completion" — enforced here by intersecting the
/// per-benchmark curves.
///
/// # Errors
///
/// Returns [`AnalysisError::Empty`] when `analyses` is empty.
pub fn geomean_curves(
    analyses: &[LboAnalysis],
) -> Result<BTreeMap<CollectorKind, Vec<(f64, f64)>>, AnalysisError> {
    if analyses.is_empty() {
        return Err(AnalysisError::Empty);
    }
    let mut out: BTreeMap<CollectorKind, Vec<(f64, f64)>> = BTreeMap::new();
    for collector in CollectorKind::ALL {
        // Factors at which this collector completed every benchmark.
        let mut factors: Option<Vec<u64>> = None;
        for a in analyses {
            let fs: Vec<u64> = a
                .curve(collector)
                .map(|points| points.iter().map(|p| factor_key(p.heap_factor)).collect())
                .unwrap_or_default();
            factors = Some(match factors {
                None => fs,
                Some(existing) => existing.into_iter().filter(|f| fs.contains(f)).collect(),
            });
        }
        let factors = factors.unwrap_or_default();
        let mut series = Vec::new();
        for fk in factors {
            let mut per_bench = Vec::with_capacity(analyses.len());
            let mut factor = 0.0;
            // The factor set was intersected above, so every benchmark has a
            // point at `fk`; should a curve nonetheless lack one, drop the
            // factor rather than plot an incomplete geomean.
            let mut complete = true;
            for a in analyses {
                let point = a
                    .curve(collector)
                    .and_then(|ps| ps.iter().find(|p| factor_key(p.heap_factor) == fk));
                match point {
                    Some(p) => {
                        per_bench.push(p.overhead.mean());
                        factor = p.heap_factor;
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            series.push((factor, geometric_mean(&per_bench)?));
        }
        if !series.is_empty() {
            out.insert(collector, series);
        }
    }
    Ok(out)
}

/// Quantise a heap factor for exact grouping (1/1000 resolution).
fn factor_key(factor: f64) -> u64 {
    (factor * 1000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(
        collector: CollectorKind,
        factor: f64,
        wall: f64,
        task: f64,
        wall_d: f64,
        task_d: f64,
    ) -> RunSample {
        RunSample {
            collector,
            heap_factor: factor,
            wall_s: wall,
            task_s: task,
            wall_distillable_s: wall_d,
            task_distillable_s: task_d,
        }
    }

    #[test]
    fn empty_samples_rejected() {
        assert!(LboAnalysis::compute(&[], Clock::Wall).is_err());
    }

    #[test]
    fn nonpositive_samples_rejected() {
        let s = sample(CollectorKind::G1, 2.0, 1.0, 0.0, 1.0, 1.0);
        assert!(LboAnalysis::compute(&[s], Clock::Task).is_err());
    }

    #[test]
    fn distilled_is_minimum_across_cells() {
        let samples = vec![
            sample(CollectorKind::Serial, 2.0, 1.2, 1.3, 1.0, 1.1),
            sample(CollectorKind::Serial, 6.0, 1.05, 1.1, 0.95, 1.0),
            sample(CollectorKind::Zgc, 2.0, 1.5, 2.5, 1.45, 2.4),
        ];
        let a = LboAnalysis::compute(&samples, Clock::Wall).unwrap();
        assert_eq!(a.distilled_s(), 0.95, "lowest wall-minus-stw wins");
        let t = LboAnalysis::compute(&samples, Clock::Task).unwrap();
        assert_eq!(t.distilled_s(), 1.0);
    }

    #[test]
    fn overheads_are_at_least_one_for_the_distilled_cell() {
        let samples = vec![
            sample(CollectorKind::Serial, 6.0, 1.0, 1.1, 0.9, 1.0),
            sample(CollectorKind::G1, 6.0, 1.2, 1.6, 1.1, 1.5),
        ];
        let a = LboAnalysis::compute(&samples, Clock::Wall).unwrap();
        for points in a.curves().values() {
            for p in points {
                assert!(p.overhead.mean() >= 1.0, "{:?}", p);
            }
        }
    }

    #[test]
    fn curves_are_sorted_by_heap_factor() {
        let samples = vec![
            sample(CollectorKind::G1, 6.0, 1.0, 1.0, 0.9, 0.9),
            sample(CollectorKind::G1, 2.0, 1.4, 1.4, 1.2, 1.2),
            sample(CollectorKind::G1, 4.0, 1.1, 1.1, 1.0, 1.0),
        ];
        let a = LboAnalysis::compute(&samples, Clock::Wall).unwrap();
        let factors: Vec<f64> = a
            .curve(CollectorKind::G1)
            .unwrap()
            .iter()
            .map(|p| p.heap_factor)
            .collect();
        assert_eq!(factors, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn repeated_invocations_produce_confidence_intervals() {
        let samples = vec![
            sample(CollectorKind::G1, 2.0, 1.40, 1.4, 1.0, 1.0),
            sample(CollectorKind::G1, 2.0, 1.44, 1.4, 1.0, 1.0),
            sample(CollectorKind::G1, 2.0, 1.36, 1.4, 1.0, 1.0),
        ];
        let a = LboAnalysis::compute(&samples, Clock::Wall).unwrap();
        let p = &a.curve(CollectorKind::G1).unwrap()[0];
        assert!(p.overhead.half_width() > 0.0);
        assert!(p.overhead.contains(1.4));
    }

    #[test]
    fn geomean_intersects_incomplete_collectors() {
        // Benchmark A has ZGC at 2 and 6; benchmark B only at 6 (ZGC could
        // not run B at 2×): the geomean ZGC curve must only contain 6.
        let a = LboAnalysis::compute(
            &[
                sample(CollectorKind::Zgc, 2.0, 2.0, 2.0, 1.0, 1.0),
                sample(CollectorKind::Zgc, 6.0, 1.2, 1.2, 1.0, 1.0),
            ],
            Clock::Wall,
        )
        .unwrap();
        let b = LboAnalysis::compute(
            &[sample(CollectorKind::Zgc, 6.0, 1.3, 1.3, 1.0, 1.0)],
            Clock::Wall,
        )
        .unwrap();
        let geo = geomean_curves(&[a, b]).unwrap();
        let zgc = &geo[&CollectorKind::Zgc];
        assert_eq!(zgc.len(), 1);
        assert_eq!(zgc[0].0, 6.0);
        let expected = (1.2f64 * 1.3).sqrt();
        assert!((zgc[0].1 - expected).abs() < 1e-12);
    }

    #[test]
    fn clock_display() {
        assert_eq!(Clock::Wall.to_string(), "wall");
        assert_eq!(Clock::Task.to_string(), "task");
    }
}
