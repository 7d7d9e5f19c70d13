//! The five production collector models.
//!
//! The paper evaluates the five garbage collectors that ship with
//! OpenJDK 21, identified by the year their design entered the JVM
//! (Figure 1): Serial (1998), Parallel (2005), G1 (2009), Shenandoah (2014)
//! and ZGC (2018). The collectors differ in *when* collection work happens
//! (stop-the-world vs. concurrent with the application), *on how many
//! threads*, *how much* work a cycle does (generational collectors trace
//! survivors, single-generation concurrent collectors trace the whole live
//! set every cycle), and *what taxes* they embed in the mutator (read/write
//! barriers). Those four architectural axes are exactly what this module
//! parameterises; they are sufficient to reproduce every qualitative claim
//! in the paper's motivation and analysis sections.

pub mod costs;
pub mod cycle;

pub use costs::CollectorModel;
pub use cycle::{CollectionKind, CollectionRequest, CycleOutcome};

use std::fmt;
use std::str::FromStr;

/// The five OpenJDK 21 production collectors modelled by the simulation.
///
/// # Examples
///
/// ```
/// use chopin_runtime::collector::CollectorKind;
///
/// assert_eq!(CollectorKind::Zgc.introduced(), 2018);
/// assert!(!CollectorKind::Zgc.supports_compressed_oops());
/// assert!(CollectorKind::Serial.supports_compressed_oops());
/// assert_eq!("g1".parse::<CollectorKind>().unwrap(), CollectorKind::G1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CollectorKind {
    /// Single-threaded stop-the-world generational collector (1998).
    Serial,
    /// Stop-the-world generational collector using all hardware parallelism
    /// (2005).
    Parallel,
    /// Region-based, mostly-STW generational collector with concurrent
    /// marking (2009); the OpenJDK default and the paper's baseline.
    G1,
    /// Concurrent compacting collector with mutator pacing (2014).
    Shenandoah,
    /// Concurrent, region-based, single-generation (as evaluated — the paper
    /// marks it "ZGC*") collector without compressed-pointer support (2018).
    Zgc,
    /// The no-op collector (OpenJDK's Epsilon, JEP 318): allocates until
    /// the heap is exhausted and never collects. Not part of the paper's
    /// evaluated set — the reproduction uses it as a true zero-cost
    /// baseline to *validate* that the LBO methodology's distilled
    /// baseline really is conservative (§2's "it may be best not to
    /// garbage collect at all").
    Epsilon,
}

impl CollectorKind {
    /// The five production collectors the paper evaluates, in order of
    /// introduction — the order Figure 1 keys its legend by. Excludes
    /// [`CollectorKind::Epsilon`], which is a validation tool rather than
    /// a production collector.
    pub const ALL: [CollectorKind; 5] = [
        CollectorKind::Serial,
        CollectorKind::Parallel,
        CollectorKind::G1,
        CollectorKind::Shenandoah,
        CollectorKind::Zgc,
    ];

    /// The year the design was introduced into the JVM (Figure 1 legend).
    pub fn introduced(self) -> u16 {
        match self {
            CollectorKind::Serial => 1998,
            CollectorKind::Parallel => 2005,
            CollectorKind::G1 => 2009,
            CollectorKind::Shenandoah => 2014,
            CollectorKind::Zgc => 2018,
            CollectorKind::Epsilon => 2018,
        }
    }

    /// Whether the collector supports compressed pointers.
    ///
    /// "All of the collectors except ZGC use compressed pointers by
    /// default. Because ZGC does not support compressed pointers, care
    /// should be taken when comparing it with the other collectors." (§2)
    pub fn supports_compressed_oops(self) -> bool {
        !matches!(self, CollectorKind::Zgc)
    }

    /// Whether the collector ever collects at all (false only for
    /// [`CollectorKind::Epsilon`]).
    pub fn collects(self) -> bool {
        !matches!(self, CollectorKind::Epsilon)
    }

    /// Whether collection work happens (almost entirely) concurrently with
    /// the application.
    pub fn is_concurrent(self) -> bool {
        matches!(self, CollectorKind::Shenandoah | CollectorKind::Zgc)
    }

    /// Whether the collector is generational: young collections trace only
    /// survivors of recent allocation rather than the whole live set.
    pub fn is_generational(self) -> bool {
        matches!(
            self,
            CollectorKind::Serial | CollectorKind::Parallel | CollectorKind::G1
        )
    }

    /// Short display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            CollectorKind::Serial => "Serial",
            CollectorKind::Parallel => "Parallel",
            CollectorKind::G1 => "G1",
            CollectorKind::Shenandoah => "Shen.",
            CollectorKind::Zgc => "ZGC*",
            CollectorKind::Epsilon => "Epsilon",
        }
    }

    /// The collector's cost/behaviour model.
    pub fn model(self) -> CollectorModel {
        CollectorModel::for_kind(self)
    }
}

impl fmt::Display for CollectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown collector name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCollectorError {
    input: String,
}

impl fmt::Display for ParseCollectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown collector `{}` (expected one of serial, parallel, g1, shenandoah, zgc)",
            self.input
        )
    }
}

impl std::error::Error for ParseCollectorError {}

impl FromStr for CollectorKind {
    type Err = ParseCollectorError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "serial" => Ok(CollectorKind::Serial),
            "parallel" => Ok(CollectorKind::Parallel),
            "g1" => Ok(CollectorKind::G1),
            "shenandoah" | "shen" | "shen." => Ok(CollectorKind::Shenandoah),
            "zgc" | "zgc*" => Ok(CollectorKind::Zgc),
            "epsilon" => Ok(CollectorKind::Epsilon),
            _ => Err(ParseCollectorError {
                input: s.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn introduction_years_match_figure_1() {
        let years: Vec<u16> = CollectorKind::ALL.iter().map(|c| c.introduced()).collect();
        assert_eq!(years, vec![1998, 2005, 2009, 2014, 2018]);
        assert!(years.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn only_zgc_lacks_compressed_oops() {
        for c in CollectorKind::ALL {
            assert_eq!(c.supports_compressed_oops(), c != CollectorKind::Zgc, "{c}");
        }
    }

    #[test]
    fn concurrency_and_generations() {
        assert!(CollectorKind::Shenandoah.is_concurrent());
        assert!(CollectorKind::Zgc.is_concurrent());
        assert!(!CollectorKind::G1.is_concurrent());
        assert!(CollectorKind::G1.is_generational());
        assert!(!CollectorKind::Zgc.is_generational());
    }

    #[test]
    fn epsilon_is_not_in_the_evaluated_set() {
        assert!(!CollectorKind::ALL.contains(&CollectorKind::Epsilon));
        assert!(!CollectorKind::Epsilon.collects());
        assert!(CollectorKind::G1.collects());
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(CollectorKind::Shenandoah.label(), "Shen.");
        assert_eq!(CollectorKind::Zgc.label(), "ZGC*");
        assert_eq!(CollectorKind::G1.to_string(), "G1");
    }

    #[test]
    fn parsing_round_trips_and_rejects_unknown() {
        for c in CollectorKind::ALL {
            let parsed: CollectorKind = c.label().parse().unwrap();
            assert_eq!(parsed, c);
        }
        assert_eq!(
            "epsilon".parse::<CollectorKind>().unwrap(),
            CollectorKind::Epsilon
        );
        assert!("cms".parse::<CollectorKind>().is_err());
        let err = "cms".parse::<CollectorKind>().unwrap_err();
        assert!(err.to_string().contains("cms"));
    }
}
