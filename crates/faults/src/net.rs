//! Network faults: deterministic failures of the fleet *wire*, the one
//! fault domain neither the in-process [`crate::FaultClock`] nor the
//! process-killing [`crate::HardFaultPlan`] can reach.
//!
//! The fleet transport (`chopin_harness::fleet`) is a line-framed TCP
//! protocol, and until now it was assumed perfect: every `@done` frame
//! arrives, exactly once, promptly. Real networks drop, delay, duplicate
//! and partition. A [`NetFaultPlan`] schedules those misbehaviours
//! deterministically so the merge and lease machinery can be *proven*
//! (by byte-identity against a sequential run, and exhaustively by
//! `chopin-model`) to survive them:
//!
//! * **drop** — a seeded subset of frames silently vanishes; recovery is
//!   the worker's wire-level resend plus lease expiry.
//! * **delay** — a seeded subset of frames arrives late; the heartbeat
//!   reaper and the lease deadline must not double-count the victim.
//! * **dup** — a seeded subset of frames arrives twice; the idempotent
//!   `Done` path (generation-checked late-result rejection) must shrug.
//! * **partition** — periodic windows in which a seeded subset of
//!   *workers* is unreachable in both directions; leases expire, work is
//!   stolen, and the partitioned worker's eventual resubmission loses
//!   the merge tiebreak deterministically.
//!
//! Victim selection follows the [`crate::HardFaultPlan`] discipline
//! exactly: FNV-1a over a domain-tagged identity, whitened with
//! SplitMix64, reduced by a stride — so the same frames die on every
//! run, on every host, and the acceptance tests can demand the stormed
//! CSV stay byte-identical to the undisturbed one.

use std::fmt;

use crate::hard::splitmix64;
use crate::plan::FaultPlanError;

/// Default seed for net-fault presets (the 64-bit golden-ratio constant,
/// matching the soft- and hard-fault preset fallbacks).
pub const DEFAULT_NET_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Default frame-victim stride: one frame in `stride` (by seeded hash)
/// misbehaves.
pub const DEFAULT_NET_STRIDE: u32 = 4;

/// Default injected delay for delayed frames, in milliseconds — long
/// enough to reorder against the heartbeat cadence, short enough that
/// storms stay cheap in CI.
pub const DEFAULT_NET_DELAY_MS: u64 = 750;

/// Upper bound on the injected delay: a frame delayed past any sane
/// lease deadline is configuration error, not chaos (rule R1404).
pub const MAX_NET_DELAY_MS: u64 = 60_000;

/// Default partition cadence: a partition window opens every period.
pub const DEFAULT_PARTITION_PERIOD_MS: u64 = 4_000;

/// Default partition window length within each period.
pub const DEFAULT_PARTITION_MS: u64 = 1_500;

/// The net-fault preset names accepted by `--net-faults`.
pub const NET_PRESET_NAMES: [&str; 5] = ["drop", "delay", "dup", "partition", "storm"];

/// What the fault plane decides to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Deliver normally.
    Deliver,
    /// Silently discard the frame.
    Drop,
    /// Deliver the frame after this many milliseconds.
    Delay(u64),
    /// Deliver the frame, then deliver it again.
    Duplicate,
}

/// A deterministic schedule of wire misbehaviour over a fleet run.
///
/// A stride of `0` disables that fault family; `partition_period_ms ==
/// 0` disables partitions. Presets compose the families; the `storm`
/// preset turns everything on at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    /// Seed for every victim roll.
    pub seed: u64,
    /// One frame in `drop_stride` vanishes (0 = off).
    pub drop_stride: u32,
    /// One frame in `delay_stride` arrives late (0 = off).
    pub delay_stride: u32,
    /// How late a delayed frame arrives, in milliseconds.
    pub delay_ms: u64,
    /// One frame in `dup_stride` arrives twice (0 = off).
    pub dup_stride: u32,
    /// A partition window opens every `partition_period_ms` (0 = off).
    pub partition_period_ms: u64,
    /// Length of each partition window, in milliseconds.
    pub partition_ms: u64,
    /// One worker in `partition_stride` (per window, by seeded hash) is
    /// cut off during the window.
    pub partition_stride: u32,
}

impl NetFaultPlan {
    /// A plan with everything off except the named preset family.
    #[must_use]
    pub fn preset(name: &str, seed: u64) -> Option<NetFaultPlan> {
        let mut plan = NetFaultPlan {
            seed,
            drop_stride: 0,
            delay_stride: 0,
            delay_ms: DEFAULT_NET_DELAY_MS,
            dup_stride: 0,
            partition_period_ms: 0,
            partition_ms: DEFAULT_PARTITION_MS,
            partition_stride: 2,
        };
        match name {
            "drop" => plan.drop_stride = DEFAULT_NET_STRIDE,
            "delay" => plan.delay_stride = DEFAULT_NET_STRIDE,
            "dup" => plan.dup_stride = DEFAULT_NET_STRIDE,
            "partition" => plan.partition_period_ms = DEFAULT_PARTITION_PERIOD_MS,
            "storm" => {
                plan.drop_stride = DEFAULT_NET_STRIDE;
                plan.delay_stride = DEFAULT_NET_STRIDE;
                plan.dup_stride = DEFAULT_NET_STRIDE;
                plan.partition_period_ms = DEFAULT_PARTITION_PERIOD_MS;
            }
            _ => return None,
        }
        Some(plan)
    }

    /// Validate field ranges, mirroring [`crate::HardFaultPlan::validate`].
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        if self.seed == 0 {
            return Err(FaultPlanError {
                field: "seed".to_string(),
                reason: "must be nonzero so victim selection is explicit and reproducible"
                    .to_string(),
            });
        }
        if self.delay_ms == 0 || self.delay_ms > MAX_NET_DELAY_MS {
            return Err(FaultPlanError {
                field: "delay_ms".to_string(),
                reason: format!(
                    "{}ms is outside the 1..={MAX_NET_DELAY_MS}ms bound",
                    self.delay_ms
                ),
            });
        }
        if self.partition_period_ms > 0 {
            if self.partition_ms == 0 || self.partition_ms >= self.partition_period_ms {
                return Err(FaultPlanError {
                    field: "partition_ms".to_string(),
                    reason: format!(
                        "{}ms window must be nonzero and shorter than the {}ms period, or \
                         a partitioned worker can never heal",
                        self.partition_ms, self.partition_period_ms
                    ),
                });
            }
            if self.partition_stride == 0 {
                return Err(FaultPlanError {
                    field: "partition_stride".to_string(),
                    reason: "must be at least 1 (1 partitions every worker)".to_string(),
                });
            }
        }
        if self.drop_stride == 0
            && self.delay_stride == 0
            && self.dup_stride == 0
            && self.partition_period_ms == 0
        {
            return Err(FaultPlanError {
                field: "plan".to_string(),
                reason: "every fault family is disabled; drop --net-faults instead".to_string(),
            });
        }
        Ok(())
    }

    /// Whether any per-frame family (drop/delay/dup) is enabled.
    #[must_use]
    pub fn has_frame_faults(&self) -> bool {
        self.drop_stride > 0 || self.delay_stride > 0 || self.dup_stride > 0
    }

    fn roll(&self, domain: &str, worker: u64, index: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for part in [
            domain.as_bytes(),
            b"/",
            format!("{worker}").as_bytes(),
            b"/",
            format!("{index}").as_bytes(),
        ] {
            for &byte in part {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        splitmix64(h ^ self.seed)
    }

    /// Decide the fate of the `seq`-th frame on `worker`'s link.
    ///
    /// The roll hashes `(family, worker, seq)` with the seed, so fates
    /// are independent of wall time, arrival order and direction — the
    /// same frame dies the same way on every run. Families are checked
    /// drop → delay → dup so one frame suffers at most one fate.
    #[must_use]
    pub fn fate(&self, worker: u64, seq: u64) -> FrameFate {
        if self.drop_stride > 0
            && self
                .roll("drop", worker, seq)
                .is_multiple_of(u64::from(self.drop_stride))
        {
            return FrameFate::Drop;
        }
        if self.delay_stride > 0
            && self
                .roll("delay", worker, seq)
                .is_multiple_of(u64::from(self.delay_stride))
        {
            return FrameFate::Delay(self.delay_ms);
        }
        if self.dup_stride > 0
            && self
                .roll("dup", worker, seq)
                .is_multiple_of(u64::from(self.dup_stride))
        {
            return FrameFate::Duplicate;
        }
        FrameFate::Deliver
    }

    /// Whether `worker` is inside a partition window at `now_ms`
    /// (milliseconds since the run began). Victims are re-rolled per
    /// window, so partitions move around the fleet over time.
    #[must_use]
    pub fn partitioned(&self, worker: u64, now_ms: u64) -> bool {
        if self.partition_period_ms == 0 {
            return false;
        }
        if now_ms % self.partition_period_ms >= self.partition_ms {
            return false;
        }
        let window = now_ms / self.partition_period_ms;
        self.roll("partition", worker, window)
            .is_multiple_of(u64::from(self.partition_stride))
    }
}

impl fmt::Display for NetFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "net(seed={:#x} drop=1/{} delay=1/{}@{}ms dup=1/{} partition={}ms/{}ms)",
            self.seed,
            self.drop_stride,
            self.delay_stride,
            self.delay_ms,
            self.dup_stride,
            self.partition_ms,
            self.partition_period_ms,
        )
    }
}

/// Parse a `--net-faults` flag value: `PRESET[:SEED]`.
pub fn parse_net_flag(flag: &str) -> Result<NetFaultPlan, String> {
    let mut parts = flag.splitn(2, ':');
    let name = parts.next().unwrap_or_default();
    let mut plan = NetFaultPlan::preset(name, DEFAULT_NET_SEED).ok_or_else(|| {
        format!(
            "unknown net-fault preset {name:?} (expected one of: {})",
            NET_PRESET_NAMES.join(", ")
        )
    })?;
    if let Some(seed) = parts.next() {
        plan.seed = seed
            .parse()
            .map_err(|_| format!("net-fault seed {seed:?} is not a u64"))?;
    }
    plan.validate().map_err(|e| e.to_string())?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_enable_exactly_their_family() {
        let drop = NetFaultPlan::preset("drop", 1).unwrap();
        assert!(drop.drop_stride > 0 && drop.delay_stride == 0 && drop.dup_stride == 0);
        assert_eq!(drop.partition_period_ms, 0);
        let partition = NetFaultPlan::preset("partition", 1).unwrap();
        assert!(!partition.has_frame_faults());
        assert!(partition.partition_period_ms > 0);
        let storm = NetFaultPlan::preset("storm", 1).unwrap();
        assert!(storm.has_frame_faults() && storm.partition_period_ms > 0);
        assert!(NetFaultPlan::preset("segv", 1).is_none());
    }

    #[test]
    fn validation_rejects_degenerate_plans() {
        let mut plan = NetFaultPlan::preset("storm", DEFAULT_NET_SEED).unwrap();
        assert!(plan.validate().is_ok());
        plan.seed = 0;
        assert_eq!(plan.validate().unwrap_err().field, "seed");
        plan.seed = 1;
        plan.delay_ms = MAX_NET_DELAY_MS + 1;
        assert_eq!(plan.validate().unwrap_err().field, "delay_ms");
        plan.delay_ms = 5;
        plan.partition_ms = plan.partition_period_ms;
        assert_eq!(plan.validate().unwrap_err().field, "partition_ms");
        let mut all_off = NetFaultPlan::preset("drop", 1).unwrap();
        all_off.drop_stride = 0;
        assert_eq!(all_off.validate().unwrap_err().field, "plan");
    }

    #[test]
    fn frame_fates_are_deterministic_seeded_and_exclusive() {
        let plan = NetFaultPlan::preset("storm", DEFAULT_NET_SEED).unwrap();
        for worker in 0..4u64 {
            for seq in 0..64u64 {
                assert_eq!(plan.fate(worker, seq), plan.fate(worker, seq));
            }
        }
        // Every fate family actually fires somewhere under the storm.
        let fates: Vec<FrameFate> = (0..256).map(|seq| plan.fate(0, seq)).collect();
        assert!(fates.contains(&FrameFate::Drop));
        assert!(fates.contains(&FrameFate::Delay(plan.delay_ms)));
        assert!(fates.contains(&FrameFate::Duplicate));
        assert!(fates.contains(&FrameFate::Deliver));
        // Different seeds reshuffle.
        let other = NetFaultPlan { seed: 7, ..plan };
        assert!((0..256).any(|seq| plan.fate(1, seq) != other.fate(1, seq)));
    }

    #[test]
    fn partitions_open_close_and_move_between_windows() {
        let plan = NetFaultPlan {
            partition_stride: 1, // every worker, deterministically
            ..NetFaultPlan::preset("partition", DEFAULT_NET_SEED).unwrap()
        };
        let period = plan.partition_period_ms;
        assert!(plan.partitioned(0, 0), "window open at period start");
        assert!(
            !plan.partitioned(0, plan.partition_ms),
            "window closed after partition_ms"
        );
        assert!(plan.partitioned(0, period), "window reopens next period");

        // With a stride, victims are per-window: some window must spare
        // a worker another window condemns.
        let strided = NetFaultPlan {
            partition_stride: 2,
            ..plan
        };
        let verdicts: Vec<bool> = (0..32)
            .map(|w| strided.partitioned(3, w * period))
            .collect();
        assert!(verdicts.contains(&true) && verdicts.contains(&false));
    }

    #[test]
    fn flag_parsing_accepts_presets_and_seeds() {
        let plan = parse_net_flag("drop").unwrap();
        assert_eq!(plan.seed, DEFAULT_NET_SEED);
        assert_eq!(plan.drop_stride, DEFAULT_NET_STRIDE);
        let plan = parse_net_flag("storm:99").unwrap();
        assert_eq!(plan.seed, 99);
        assert!(parse_net_flag("segv").is_err());
        assert!(parse_net_flag("drop:notanumber").is_err());
        assert!(parse_net_flag("drop:0").is_err(), "zero seed rejected");
    }

    #[test]
    fn display_names_every_family() {
        let text = NetFaultPlan::preset("storm", 3).unwrap().to_string();
        assert!(text.contains("drop="), "{text}");
        assert!(text.contains("partition="), "{text}");
    }
}
