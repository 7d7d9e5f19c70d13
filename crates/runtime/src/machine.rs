//! The simulated machine.
//!
//! §6.1.3 of the paper describes the reference hardware: an AMD Ryzen 9
//! 7950X with 16 cores and 32 hardware threads at 4.5 GHz. The simulation
//! defaults to the same shape. The wall-clock vs. task-clock divergence the
//! paper highlights for concurrent collectors (§6.2) only exists when the
//! machine has idle hardware threads the collector can soak up, so the
//! hardware-thread count is a first-class parameter.

/// Description of the simulated hardware.
///
/// # Examples
///
/// ```
/// use chopin_runtime::machine::MachineConfig;
///
/// let m = MachineConfig::default();
/// assert_eq!(m.hardware_threads(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    hardware_threads: u32,
    /// Relative speed of one hardware thread; 1.0 is the reference 4.5 GHz
    /// Zen 4 core. Used by the frequency-scaling sensitivity experiments.
    speed_factor: f64,
    /// Core Performance Boost enabled (§6.1.3: "When testing benchmarks'
    /// sensitivity to frequency scaling, we enable Core Performance
    /// Boost"). The realised speedup is workload-specific (the PFS
    /// statistic).
    frequency_boost: bool,
    /// DRAM slowed to the paper's DDR5-2000 profile (§6.1.3). The realised
    /// slowdown is workload-specific (the PMS statistic).
    slow_memory: bool,
    /// Last-level cache restricted to 1/16 capacity via cache allocation
    /// enforcement (§6.1.3). The realised slowdown is workload-specific
    /// (the PLS statistic).
    reduced_llc: bool,
}

impl MachineConfig {
    /// The paper's reference machine: 32 hardware threads (16 cores, SMT).
    pub fn ryzen_7950x() -> Self {
        MachineConfig {
            hardware_threads: 32,
            speed_factor: 1.0,
            frequency_boost: false,
            slow_memory: false,
            reduced_llc: false,
        }
    }

    /// A machine with a custom hardware-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `hardware_threads` is zero.
    pub fn with_hardware_threads(hardware_threads: u32) -> Self {
        assert!(hardware_threads > 0, "machine needs at least one thread");
        MachineConfig {
            hardware_threads,
            speed_factor: 1.0,
            frequency_boost: false,
            slow_memory: false,
            reduced_llc: false,
        }
    }

    /// Set the relative per-thread speed (for frequency-scaling
    /// experiments). Values above 1.0 model Core Performance Boost.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn with_speed_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "speed factor must be positive"
        );
        self.speed_factor = factor;
        self
    }

    /// Number of hardware threads available to the runtime.
    pub fn hardware_threads(&self) -> u32 {
        self.hardware_threads
    }

    /// Relative per-thread speed.
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Enable Core Performance Boost for the frequency-sensitivity
    /// experiment (PFS).
    pub fn with_frequency_boost(mut self, enabled: bool) -> Self {
        self.frequency_boost = enabled;
        self
    }

    /// Whether Core Performance Boost is enabled.
    pub fn frequency_boost(&self) -> bool {
        self.frequency_boost
    }

    /// Slow the DRAM to the paper's reduced timing profile (PMS).
    pub fn with_slow_memory(mut self, enabled: bool) -> Self {
        self.slow_memory = enabled;
        self
    }

    /// Whether the slow-memory profile is active.
    pub fn slow_memory(&self) -> bool {
        self.slow_memory
    }

    /// Restrict the last-level cache to 1/16 capacity (PLS).
    pub fn with_reduced_llc(mut self, enabled: bool) -> Self {
        self.reduced_llc = enabled;
        self
    }

    /// Whether the LLC restriction is active.
    pub fn reduced_llc(&self) -> bool {
        self.reduced_llc
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::ryzen_7950x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let m = MachineConfig::default();
        assert_eq!(m.hardware_threads(), 32);
        assert_eq!(m.speed_factor(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        MachineConfig::with_hardware_threads(0);
    }

    #[test]
    fn speed_factor_builder() {
        let m = MachineConfig::default().with_speed_factor(1.2);
        assert_eq!(m.speed_factor(), 1.2);
    }

    #[test]
    fn sensitivity_switches_default_off_and_toggle() {
        let m = MachineConfig::default();
        assert!(!m.frequency_boost() && !m.slow_memory() && !m.reduced_llc());
        let m = m
            .with_frequency_boost(true)
            .with_slow_memory(true)
            .with_reduced_llc(true);
        assert!(m.frequency_boost() && m.slow_memory() && m.reduced_llc());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_speed_factor_rejected() {
        MachineConfig::default().with_speed_factor(0.0);
    }
}
