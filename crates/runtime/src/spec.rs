//! Mutator specifications: the runtime-facing description of a workload.
//!
//! A [`MutatorSpec`] captures everything the simulated runtime needs to know
//! about an application: how much CPU work one iteration performs, across
//! how many threads with what parallel efficiency, how fast it allocates,
//! what its live set looks like over time, and — for the latency-sensitive
//! workloads — how its work is divided into externally visible requests.
//! The `chopin-workloads` crate constructs one of these for each of the 22
//! DaCapo Chopin benchmarks from the paper's published nominal statistics.

use crate::time::SimDuration;
use std::fmt;

/// Validation error for a [`MutatorSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    field: &'static str,
    reason: &'static str,
}

impl SpecError {
    /// The spec field that failed validation (dotted path, e.g.
    /// `requests.count`).
    pub fn field(&self) -> &'static str {
        self.field
    }

    /// Why the field is invalid.
    pub fn reason(&self) -> &'static str {
        self.reason
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid mutator spec: {} {}", self.field, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// Description of the request structure of a latency-sensitive workload.
///
/// DaCapo's request-based workloads are "driven by a pre-determined set of
/// requests, with each worker consuming consecutive requests until all have
/// been completed. Within each thread, the start time of each request is
/// thus dictated by the completion of the request before." (§4.4) — this is
/// exactly the model the engine implements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestProfile {
    /// Total number of requests in the pre-determined set.
    pub count: u32,
    /// Number of worker threads consuming requests.
    pub workers: u32,
    /// Dispersion of per-request service demand: the standard deviation of
    /// the log of demand (a log-normal service-time distribution). Zero
    /// means perfectly uniform requests.
    pub dispersion: f64,
}

impl RequestProfile {
    /// Check the profile's own invariants. Shared by the spec builder and
    /// the `chopin-lint` static validator.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.count == 0 {
            return Err(SpecError {
                field: "requests.count",
                reason: "must be positive",
            });
        }
        if self.workers == 0 {
            return Err(SpecError {
                field: "requests.workers",
                reason: "must be positive",
            });
        }
        if !(self.dispersion.is_finite() && self.dispersion >= 0.0) {
            return Err(SpecError {
                field: "requests.dispersion",
                reason: "must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// A complete workload description for the simulated runtime.
///
/// Construct with [`MutatorSpec::builder`]; the builder validates every
/// field so the engine can assume internal consistency.
///
/// # Examples
///
/// ```
/// use chopin_runtime::spec::MutatorSpec;
/// use chopin_runtime::time::SimDuration;
///
/// # fn main() -> Result<(), chopin_runtime::spec::SpecError> {
/// let spec = MutatorSpec::builder("toy")
///     .threads(4)
///     .total_work(SimDuration::from_millis(200))
///     .total_allocation(64 << 20)
///     .live_range(4 << 20, 8 << 20)
///     .build()?;
/// assert_eq!(spec.name(), "toy");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MutatorSpec {
    name: String,
    threads: u32,
    parallel_efficiency: f64,
    kernel_fraction: f64,
    total_work: SimDuration,
    total_allocation: u64,
    mean_object_size: u64,
    live_floor: u64,
    live_peak: u64,
    build_fraction: f64,
    survival_fraction: f64,
    uncompressed_inflation: f64,
    freq_sensitivity: f64,
    memory_sensitivity: f64,
    llc_sensitivity: f64,
    forced_c2_cost: f64,
    interpreter_cost: f64,
    requests: Option<RequestProfile>,
}

impl MutatorSpec {
    /// Start building a spec for a workload called `name`.
    pub fn builder(name: impl Into<String>) -> MutatorSpecBuilder {
        MutatorSpecBuilder {
            spec: MutatorSpec {
                name: name.into(),
                threads: 1,
                parallel_efficiency: 1.0,
                kernel_fraction: 0.0,
                total_work: SimDuration::from_millis(100),
                total_allocation: 16 << 20,
                mean_object_size: 64,
                live_floor: 4 << 20,
                live_peak: 8 << 20,
                build_fraction: 0.1,
                survival_fraction: 0.05,
                uncompressed_inflation: 1.35,
                freq_sensitivity: 0.5,
                memory_sensitivity: 0.05,
                llc_sensitivity: 0.05,
                forced_c2_cost: 1.0,
                interpreter_cost: 0.6,
                requests: None,
            },
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of application threads.
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Parallel efficiency in `[0, 1]`: the fraction of ideal speedup the
    /// workload achieves (the PPE nominal statistic, normalised).
    pub fn parallel_efficiency(&self) -> f64 {
        self.parallel_efficiency
    }

    /// Fraction of execution spent in kernel mode (the PKP statistic,
    /// normalised). Kernel time is not subject to GC barrier taxes.
    pub fn kernel_fraction(&self) -> f64 {
        self.kernel_fraction
    }

    /// Total useful CPU work for one iteration, summed over all threads.
    pub fn total_work(&self) -> SimDuration {
        self.total_work
    }

    /// Total bytes allocated per iteration (application view, before any
    /// pointer-width inflation).
    pub fn total_allocation(&self) -> u64 {
        self.total_allocation
    }

    /// Mean object size in bytes (the AOA statistic).
    pub fn mean_object_size(&self) -> u64 {
        self.mean_object_size
    }

    /// Live bytes at iteration start.
    pub fn live_floor(&self) -> u64 {
        self.live_floor
    }

    /// Live bytes at the workload's plateau.
    pub fn live_peak(&self) -> u64 {
        self.live_peak
    }

    /// Fraction of the iteration's work during which the live set ramps
    /// from floor to peak (h2's database-construction phase is a long ramp;
    /// steady-state services have a short one).
    pub fn build_fraction(&self) -> f64 {
        self.build_fraction
    }

    /// Fraction of freshly allocated bytes that survive their first
    /// collection.
    pub fn survival_fraction(&self) -> f64 {
        self.survival_fraction
    }

    /// Heap footprint inflation when compressed pointers are disabled
    /// (GMU / GMD from the nominal statistics).
    pub fn uncompressed_inflation(&self) -> f64 {
        self.uncompressed_inflation
    }

    /// Fraction of a clock-frequency change the workload converts into
    /// speedup (1.0 = fully CPU-bound; 0.0 = fully memory/IO-bound —
    /// derived from the PFS statistic).
    pub fn freq_sensitivity(&self) -> f64 {
        self.freq_sensitivity
    }

    /// Fractional slowdown under the paper's slow-DRAM profile (the PMS
    /// statistic, normalised).
    pub fn memory_sensitivity(&self) -> f64 {
        self.memory_sensitivity
    }

    /// Fractional slowdown under the paper's 1/16-LLC restriction (the PLS
    /// statistic, normalised; slightly negative values are possible —
    /// sunflow speeds up marginally).
    pub fn llc_sensitivity(&self) -> f64 {
        self.llc_sensitivity
    }

    /// Fractional slowdown of a whole run under forced top-tier
    /// compilation (the PCC statistic, normalised).
    pub fn forced_c2_cost(&self) -> f64 {
        self.forced_c2_cost
    }

    /// Fractional slowdown of a whole run under the interpreter (the PIN
    /// statistic, normalised).
    pub fn interpreter_cost(&self) -> f64 {
        self.interpreter_cost
    }

    /// Request structure, if this is a latency-sensitive workload.
    pub fn requests(&self) -> Option<&RequestProfile> {
        self.requests.as_ref()
    }

    /// The number of effective CPUs the workload can use, given its thread
    /// count and parallel efficiency (Amdahl-style: one perfectly used
    /// thread plus a discounted share of the rest).
    pub fn effective_cpus(&self) -> f64 {
        1.0 + (self.threads.saturating_sub(1)) as f64 * self.parallel_efficiency
    }

    /// Allocation intensity: bytes allocated per nanosecond of useful work.
    pub fn alloc_intensity(&self) -> f64 {
        self.total_allocation as f64 / self.total_work.as_nanos().max(1) as f64
    }

    /// Check every field invariant the engine relies on. The builder calls
    /// this before releasing a spec, and the `chopin-lint` static validator
    /// calls it on already-built specs, so both enforce identical rules.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let s = self;
        if s.name.is_empty() {
            return Err(SpecError {
                field: "name",
                reason: "must be non-empty",
            });
        }
        if s.threads == 0 {
            return Err(SpecError {
                field: "threads",
                reason: "must be positive",
            });
        }
        if !(0.0..=1.0).contains(&s.parallel_efficiency) {
            return Err(SpecError {
                field: "parallel_efficiency",
                reason: "must lie in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&s.kernel_fraction) {
            return Err(SpecError {
                field: "kernel_fraction",
                reason: "must lie in [0, 1]",
            });
        }
        if s.total_work.is_zero() {
            return Err(SpecError {
                field: "total_work",
                reason: "must be positive",
            });
        }
        if s.mean_object_size == 0 {
            return Err(SpecError {
                field: "mean_object_size",
                reason: "must be positive",
            });
        }
        if s.live_peak < s.live_floor {
            return Err(SpecError {
                field: "live_peak",
                reason: "must be at least live_floor",
            });
        }
        if s.live_peak == 0 {
            return Err(SpecError {
                field: "live_peak",
                reason: "must be positive",
            });
        }
        if !(0.0..=1.0).contains(&s.build_fraction) {
            return Err(SpecError {
                field: "build_fraction",
                reason: "must lie in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&s.survival_fraction) {
            return Err(SpecError {
                field: "survival_fraction",
                reason: "must lie in [0, 1]",
            });
        }
        if !(s.uncompressed_inflation >= 1.0 && s.uncompressed_inflation.is_finite()) {
            return Err(SpecError {
                field: "uncompressed_inflation",
                reason: "must be at least 1",
            });
        }
        if !(0.0..=1.0).contains(&s.freq_sensitivity) {
            return Err(SpecError {
                field: "freq_sensitivity",
                reason: "must lie in [0, 1]",
            });
        }
        if !(s.memory_sensitivity.is_finite() && s.memory_sensitivity >= 0.0) {
            return Err(SpecError {
                field: "memory_sensitivity",
                reason: "must be finite and non-negative",
            });
        }
        if !(s.llc_sensitivity.is_finite() && s.llc_sensitivity > -0.1) {
            return Err(SpecError {
                field: "llc_sensitivity",
                reason: "must be finite and above -0.1",
            });
        }
        if !(s.forced_c2_cost.is_finite() && s.forced_c2_cost >= 0.0) {
            return Err(SpecError {
                field: "forced_c2_cost",
                reason: "must be finite and non-negative",
            });
        }
        if !(s.interpreter_cost.is_finite() && s.interpreter_cost >= 0.0) {
            return Err(SpecError {
                field: "interpreter_cost",
                reason: "must be finite and non-negative",
            });
        }
        if let Some(r) = &s.requests {
            r.validate()?;
        }
        Ok(())
    }

    /// Live bytes (application view) once `progress` of `total_work` useful
    /// nanoseconds have completed.
    pub fn live_at(&self, progress_ns: f64) -> f64 {
        let floor = self.live_floor as f64;
        let peak = self.live_peak as f64;
        if peak <= floor {
            return floor;
        }
        let ramp = self.build_fraction * self.total_work.as_nanos() as f64;
        if ramp <= 0.0 {
            return peak;
        }
        let frac = (progress_ns / ramp).clamp(0.0, 1.0);
        floor + (peak - floor) * frac
    }
}

/// Builder for [`MutatorSpec`]. See [`MutatorSpec::builder`].
#[derive(Debug, Clone)]
pub struct MutatorSpecBuilder {
    spec: MutatorSpec,
}

impl MutatorSpecBuilder {
    /// Set the number of application threads.
    pub fn threads(mut self, threads: u32) -> Self {
        self.spec.threads = threads;
        self
    }

    /// Set the parallel efficiency in `[0, 1]`.
    pub fn parallel_efficiency(mut self, eff: f64) -> Self {
        self.spec.parallel_efficiency = eff;
        self
    }

    /// Set the kernel-mode fraction in `[0, 1]`.
    pub fn kernel_fraction(mut self, frac: f64) -> Self {
        self.spec.kernel_fraction = frac;
        self
    }

    /// Set the total useful CPU work per iteration (all threads summed).
    pub fn total_work(mut self, work: SimDuration) -> Self {
        self.spec.total_work = work;
        self
    }

    /// Set the total allocation per iteration, in bytes.
    pub fn total_allocation(mut self, bytes: u64) -> Self {
        self.spec.total_allocation = bytes;
        self
    }

    /// Set the mean object size, in bytes.
    pub fn mean_object_size(mut self, bytes: u64) -> Self {
        self.spec.mean_object_size = bytes;
        self
    }

    /// Set the live-set floor and peak, in bytes.
    pub fn live_range(mut self, floor: u64, peak: u64) -> Self {
        self.spec.live_floor = floor;
        self.spec.live_peak = peak;
        self
    }

    /// Set the fraction of the iteration over which the live set ramps up.
    pub fn build_fraction(mut self, frac: f64) -> Self {
        self.spec.build_fraction = frac;
        self
    }

    /// Set the first-collection survival fraction of fresh allocation.
    pub fn survival_fraction(mut self, frac: f64) -> Self {
        self.spec.survival_fraction = frac;
        self
    }

    /// Set the footprint inflation for uncompressed pointers (≥ 1).
    pub fn uncompressed_inflation(mut self, factor: f64) -> Self {
        self.spec.uncompressed_inflation = factor;
        self
    }

    /// Set the frequency sensitivity in `[0, 1]`.
    pub fn freq_sensitivity(mut self, s: f64) -> Self {
        self.spec.freq_sensitivity = s;
        self
    }

    /// Set the slow-memory fractional slowdown (≥ 0).
    pub fn memory_sensitivity(mut self, s: f64) -> Self {
        self.spec.memory_sensitivity = s;
        self
    }

    /// Set the reduced-LLC fractional slowdown (> −0.1).
    pub fn llc_sensitivity(mut self, s: f64) -> Self {
        self.spec.llc_sensitivity = s;
        self
    }

    /// Set the forced-C2 fractional slowdown (≥ 0, the PCC statistic).
    pub fn forced_c2_cost(mut self, s: f64) -> Self {
        self.spec.forced_c2_cost = s;
        self
    }

    /// Set the interpreter-only fractional slowdown (≥ 0, the PIN
    /// statistic).
    pub fn interpreter_cost(mut self, s: f64) -> Self {
        self.spec.interpreter_cost = s;
        self
    }

    /// Mark the workload latency-sensitive with the given request profile.
    pub fn requests(mut self, profile: RequestProfile) -> Self {
        self.spec.requests = Some(profile);
        self
    }

    /// Validate and build the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] describing the first invalid field.
    pub fn build(self) -> Result<MutatorSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> MutatorSpecBuilder {
        MutatorSpec::builder("t")
            .threads(8)
            .total_work(SimDuration::from_millis(100))
            .total_allocation(100 << 20)
            .live_range(10 << 20, 20 << 20)
    }

    #[test]
    fn builder_produces_valid_spec() {
        let s = base().build().unwrap();
        assert_eq!(s.threads(), 8);
        assert_eq!(s.total_allocation(), 100 << 20);
    }

    #[test]
    fn sensitivity_fields_validate() {
        assert!(base().freq_sensitivity(1.5).build().is_err());
        assert!(base().memory_sensitivity(-0.1).build().is_err());
        assert!(base().llc_sensitivity(-0.5).build().is_err());
        let s = base()
            .freq_sensitivity(0.9)
            .memory_sensitivity(0.4)
            .llc_sensitivity(-0.02)
            .build()
            .unwrap();
        assert_eq!(s.freq_sensitivity(), 0.9);
        assert_eq!(s.memory_sensitivity(), 0.4);
        assert_eq!(s.llc_sensitivity(), -0.02);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert!(MutatorSpec::builder("").build().is_err());
        assert!(base().threads(0).build().is_err());
        assert!(base().parallel_efficiency(1.5).build().is_err());
        assert!(base().live_range(10, 5).build().is_err());
        assert!(base().survival_fraction(-0.1).build().is_err());
        assert!(base().uncompressed_inflation(0.9).build().is_err());
        assert!(base()
            .requests(RequestProfile {
                count: 0,
                workers: 1,
                dispersion: 0.0
            })
            .build()
            .is_err());
    }

    #[test]
    fn effective_cpus_scales_with_efficiency() {
        let perfect = base().parallel_efficiency(1.0).build().unwrap();
        let poor = base().parallel_efficiency(0.1).build().unwrap();
        assert_eq!(perfect.effective_cpus(), 8.0);
        assert!((poor.effective_cpus() - 1.7).abs() < 1e-12);
    }

    #[test]
    fn alloc_intensity_is_bytes_per_ns() {
        let s = base()
            .total_work(SimDuration::from_nanos(1000))
            .total_allocation(500)
            .build()
            .unwrap();
        assert_eq!(s.alloc_intensity(), 0.5);
    }

    #[test]
    fn live_ramps_from_floor_to_peak() {
        let s = base().build_fraction(0.5).build().unwrap();
        let total = s.total_work().as_nanos() as f64;
        assert_eq!(s.live_at(0.0), (10 << 20) as f64);
        assert_eq!(s.live_at(total), (20 << 20) as f64);
        let mid = s.live_at(0.25 * total);
        assert!((mid - (15 << 20) as f64).abs() < 1.0);
        // Beyond the ramp the live set stays at the peak.
        assert_eq!(s.live_at(0.75 * total), (20 << 20) as f64);
    }

    #[test]
    fn zero_build_fraction_means_immediate_peak() {
        let s = base().build_fraction(0.0).build().unwrap();
        assert_eq!(s.live_at(0.0), (20 << 20) as f64);
    }

    #[test]
    fn flat_live_set_when_floor_equals_peak() {
        let s = base().live_range(5 << 20, 5 << 20).build().unwrap();
        assert_eq!(s.live_at(0.0), (5 << 20) as f64);
        assert_eq!(s.live_at(1e12), (5 << 20) as f64);
    }
}
