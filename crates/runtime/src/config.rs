//! Run configuration: the simulation analog of the JVM command line.
//!
//! Heap size (`-Xms`/`-Xmx`, which §6.1.2 uses to control for heap size),
//! collector selection (`-XX:+Use...GC`), compressed-pointer mode
//! (`-XX:-UseCompressedOops`), machine shape, warmup scaling, and the
//! deterministic seed.

use crate::collector::{CollectorKind, CollectorModel};
use crate::machine::MachineConfig;
use std::fmt;

/// Compiler configuration, the analog of OpenJDK's tiered / `-Xcomp` /
/// `-Xint` modes (§4.3 and the PCC/PCS/PIN nominal statistics measure a
/// workload's sensitivity to this choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompilerMode {
    /// The default multi-tier configuration (the baseline of the PCC and
    /// PIN statistics).
    #[default]
    Tiered,
    /// Forced top-tier compilation of everything up front (`-Xcomp`): the
    /// workload pays its PCC slowdown.
    ForcedC2,
    /// Interpreter only (`-Xint`): the workload pays its PIN slowdown.
    InterpreterOnly,
}

impl fmt::Display for CompilerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompilerMode::Tiered => "tiered",
            CompilerMode::ForcedC2 => "forced-c2",
            CompilerMode::InterpreterOnly => "interpreter",
        };
        f.write_str(s)
    }
}

/// Error raised by [`RunConfig`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid run config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Configuration for one run (invocation × iteration) of a workload on the
/// simulated runtime.
///
/// # Examples
///
/// ```
/// use chopin_runtime::config::RunConfig;
/// use chopin_runtime::collector::CollectorKind;
///
/// # fn main() -> Result<(), chopin_runtime::config::ConfigError> {
/// let cfg = RunConfig::new(64 << 20, CollectorKind::G1).validated()?;
/// assert!(cfg.compressed_oops(), "G1 defaults to compressed pointers");
///
/// let zgc = RunConfig::new(64 << 20, CollectorKind::Zgc).validated()?;
/// assert!(!zgc.compressed_oops(), "ZGC cannot use compressed pointers");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    heap_bytes: u64,
    collector: CollectorKind,
    compressed_oops: bool,
    machine: MachineConfig,
    seed: u64,
    work_scale: f64,
    noise: f64,
    compiler_mode: CompilerMode,
    /// Ablation hook: replace the selected collector's behaviour model
    /// wholesale (e.g. Shenandoah with its pacer disabled).
    collector_model_override: Option<CollectorModel>,
}

impl RunConfig {
    /// A configuration with the given heap and collector; everything else
    /// takes its default (the paper's baseline machine, compressed pointers
    /// where supported, no warmup scaling, a small invocation noise).
    pub fn new(heap_bytes: u64, collector: CollectorKind) -> Self {
        RunConfig {
            heap_bytes,
            collector,
            compressed_oops: collector.supports_compressed_oops(),
            machine: MachineConfig::default(),
            seed: 0x5EED,
            work_scale: 1.0,
            noise: 0.004,
            compiler_mode: CompilerMode::Tiered,
            collector_model_override: None,
        }
    }

    /// Set the heap size in bytes (`-Xms`/`-Xmx`).
    pub fn with_heap_bytes(mut self, bytes: u64) -> Self {
        self.heap_bytes = bytes;
        self
    }

    /// Select the collector. Disables compressed pointers automatically if
    /// the collector cannot use them.
    pub fn with_collector(mut self, collector: CollectorKind) -> Self {
        self.collector = collector;
        if !collector.supports_compressed_oops() {
            self.compressed_oops = false;
        }
        self
    }

    /// Explicitly enable or disable compressed pointers. Enabling them on a
    /// collector that does not support them is rejected by
    /// [`RunConfig::validated`].
    pub fn with_compressed_oops(mut self, enabled: bool) -> Self {
        self.compressed_oops = enabled;
        self
    }

    /// Set the simulated machine.
    pub fn with_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Set the deterministic seed (vary per invocation for CI whiskers).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scale the workload's CPU demand (used by the iteration layer to
    /// model JIT warmup: early iterations run slower).
    pub fn with_work_scale(mut self, scale: f64) -> Self {
        self.work_scale = scale;
        self
    }

    /// Set the relative invocation-to-invocation noise (PSD analog).
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Select the compiler configuration (§4.3's `-server`/`-comp`/`-Xint`
    /// axis).
    pub fn with_compiler_mode(mut self, mode: CompilerMode) -> Self {
        self.compiler_mode = mode;
        self
    }

    /// The selected compiler mode.
    pub fn compiler_mode(&self) -> CompilerMode {
        self.compiler_mode
    }

    /// Ablation hook: run with a hand-modified collector model instead of
    /// the stock model for the selected collector. The model must
    /// validate.
    pub fn with_collector_model(mut self, model: CollectorModel) -> Self {
        self.collector_model_override = Some(model);
        self
    }

    /// The collector-model override, if any.
    pub fn collector_model_override(&self) -> Option<&CollectorModel> {
        self.collector_model_override.as_ref()
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the heap is zero, compressed pointers
    /// are forced on an unsupporting collector, or scale factors are not
    /// positive/finite.
    pub fn validated(self) -> Result<Self, ConfigError> {
        if self.heap_bytes == 0 {
            return Err(ConfigError {
                message: "heap_bytes must be positive".into(),
            });
        }
        if self.compressed_oops && !self.collector.supports_compressed_oops() {
            return Err(ConfigError {
                message: format!(
                    "collector {} does not support compressed pointers",
                    self.collector
                ),
            });
        }
        if !(self.work_scale.is_finite() && self.work_scale > 0.0) {
            return Err(ConfigError {
                message: "work_scale must be positive".into(),
            });
        }
        if !(self.noise.is_finite() && (0.0..0.5).contains(&self.noise)) {
            return Err(ConfigError {
                message: "noise must lie in [0, 0.5)".into(),
            });
        }
        if let Some(model) = &self.collector_model_override {
            model.validate().map_err(|m| ConfigError {
                message: format!("collector model override invalid: {m}"),
            })?;
        }
        Ok(self)
    }

    /// Heap size in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.heap_bytes
    }

    /// Selected collector.
    pub fn collector(&self) -> CollectorKind {
        self.collector
    }

    /// Whether compressed pointers are in use.
    pub fn compressed_oops(&self) -> bool {
        self.compressed_oops
    }

    /// The simulated machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Deterministic seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Workload CPU-demand scale factor.
    pub fn work_scale(&self) -> f64 {
        self.work_scale
    }

    /// Invocation noise level.
    pub fn noise(&self) -> f64 {
        self.noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zgc_auto_disables_compressed_oops() {
        let cfg = RunConfig::new(1 << 30, CollectorKind::G1).with_collector(CollectorKind::Zgc);
        assert!(!cfg.compressed_oops());
        assert!(cfg.validated().is_ok());
    }

    #[test]
    fn forcing_compressed_oops_on_zgc_fails_validation() {
        let cfg = RunConfig::new(1 << 30, CollectorKind::Zgc).with_compressed_oops(true);
        assert!(cfg.validated().is_err());
    }

    #[test]
    fn zero_heap_rejected() {
        assert!(RunConfig::new(0, CollectorKind::G1).validated().is_err());
    }

    #[test]
    fn bad_scales_rejected() {
        assert!(RunConfig::new(1, CollectorKind::G1)
            .with_work_scale(0.0)
            .validated()
            .is_err());
        assert!(RunConfig::new(1, CollectorKind::G1)
            .with_noise(0.9)
            .validated()
            .is_err());
    }

    #[test]
    fn compiler_mode_defaults_to_tiered() {
        let cfg = RunConfig::new(1 << 20, CollectorKind::G1);
        assert_eq!(cfg.compiler_mode(), CompilerMode::Tiered);
        let cfg = cfg.with_compiler_mode(CompilerMode::InterpreterOnly);
        assert_eq!(cfg.compiler_mode(), CompilerMode::InterpreterOnly);
        assert_eq!(CompilerMode::ForcedC2.to_string(), "forced-c2");
    }

    #[test]
    fn builder_chain_sets_fields() {
        let cfg = RunConfig::new(123, CollectorKind::Serial)
            .with_seed(42)
            .with_work_scale(1.5)
            .with_noise(0.0)
            .validated()
            .unwrap();
        assert_eq!(cfg.heap_bytes(), 123);
        assert_eq!(cfg.seed(), 42);
        assert_eq!(cfg.work_scale(), 1.5);
        assert_eq!(cfg.noise(), 0.0);
    }
}
