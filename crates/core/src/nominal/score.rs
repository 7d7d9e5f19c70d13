//! Rank and score computation for nominal statistics.
//!
//! §5.1: "Each benchmark is scored out of ten against each metric. The
//! score is a simple linear mapping of the benchmark's rank among all
//! benchmarks. 1 indicates the lowest ranked, while 10 indicates the
//! highest ranked." The appendix tables add: "the benchmark obtains a Rank
//! between 1 and the number of benchmarks having that metric (1 being the
//! largest)."

use super::dataset::{dataset, NominalRow};
use super::metric::{metric_index, MetricDef, METRICS};
use chopin_analysis::descriptive::Summary;

/// One scored cell of an appendix table: a benchmark's value, rank, score
/// and the suite-wide min/median/max for the metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredMetric {
    /// The metric being scored.
    pub code: &'static str,
    /// The benchmark's concrete value.
    pub value: f64,
    /// Rank among benchmarks having this metric; 1 is the largest value.
    pub rank: usize,
    /// Number of benchmarks having this metric.
    pub of: usize,
    /// Score from 0 (smallest) to 10 (largest), linear in rank.
    pub score: u8,
    /// Smallest value across the suite.
    pub min: f64,
    /// Median value across the suite.
    pub median: f64,
    /// Largest value across the suite.
    pub max: f64,
}

/// Rank of `value` among `all` (competition ranking, 1 = largest).
fn rank_of(value: f64, all: &[f64]) -> usize {
    1 + all.iter().filter(|&&v| v > value).count()
}

/// Linear rank→score mapping onto 0..=10.
fn score_of(rank: usize, of: usize) -> u8 {
    if of <= 1 {
        return 10;
    }
    ((10.0 * (of - rank) as f64 / (of - 1) as f64).round() as i64).clamp(0, 10) as u8
}

/// The complete scored table for one benchmark — the reproduction of the
/// appendix's per-benchmark "Complete nominal statistics" tables (printed
/// by the suite's `-p` flag).
///
/// Returns `None` for an unknown benchmark.
///
/// # Examples
///
/// ```
/// use chopin_core::nominal::score_table;
///
/// let table = score_table("lusearch").expect("lusearch is in the suite");
/// let ara = table.iter().find(|s| s.code == "ARA").expect("ARA is scored");
/// // "the lusearch workload has a nominal allocation rate (ARA) of
/// //  23556 MB/sec ... This places it first in the suite, yielding a
/// //  score of 10." (§5.1)
/// assert_eq!(ara.rank, 1);
/// assert_eq!(ara.score, 10);
/// ```
pub fn score_table(benchmark: &str) -> Option<Vec<ScoredMetric>> {
    let rows = dataset();
    let row = rows.iter().find(|r| r.benchmark == benchmark)?;
    Some(score_row(row, &rows))
}

fn score_row(row: &NominalRow, rows: &[NominalRow]) -> Vec<ScoredMetric> {
    METRICS
        .iter()
        .enumerate()
        .filter_map(|(i, def): (usize, &MetricDef)| {
            let value = row.values[i]?;
            let all: Vec<f64> = rows.iter().filter_map(|r| r.values[i]).collect();
            let summary = Summary::of(&all).ok()?;
            let rank = rank_of(value, &all);
            Some(ScoredMetric {
                code: def.code,
                value,
                rank,
                of: all.len(),
                score: score_of(rank, all.len()),
                min: summary.min,
                median: summary.median,
                max: summary.max,
            })
        })
        .collect()
}

/// Ranks for one metric across the whole suite, sorted by rank
/// (1 = largest value first).
pub fn metric_ranking(code: &str) -> Option<Vec<(&'static str, f64, usize)>> {
    let i = metric_index(code)?;
    let rows = dataset();
    let all: Vec<f64> = rows.iter().filter_map(|r| r.values[i]).collect();
    let mut ranking: Vec<(&'static str, f64, usize)> = rows
        .iter()
        .filter_map(|r| {
            let v = r.values[i]?;
            Some((r.benchmark, v, rank_of(v, &all)))
        })
        .collect();
    ranking.sort_by_key(|(_, _, rank)| *rank);
    Some(ranking)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_one_is_largest() {
        let all = [3.0, 1.0, 2.0];
        assert_eq!(rank_of(3.0, &all), 1);
        assert_eq!(rank_of(1.0, &all), 3);
    }

    #[test]
    fn ties_share_rank() {
        let all = [5.0, 5.0, 1.0];
        assert_eq!(rank_of(5.0, &all), 1);
        assert_eq!(rank_of(1.0, &all), 3);
    }

    #[test]
    fn score_endpoints() {
        assert_eq!(score_of(1, 22), 10);
        assert_eq!(score_of(22, 22), 0);
        assert_eq!(score_of(1, 1), 10);
    }

    #[test]
    fn lusearch_ara_is_rank_one_score_ten() {
        let t = score_table("lusearch").unwrap();
        let ara = t.iter().find(|s| s.code == "ARA").unwrap();
        assert_eq!(ara.value, 23556.0);
        assert_eq!(ara.rank, 1);
        assert_eq!(ara.score, 10);
        assert_eq!(ara.of, 22);
        assert_eq!(ara.max, 23556.0);
    }

    #[test]
    fn avrora_has_lowest_gmd() {
        // "the minimum heap sizes range from 5 MB (avrora) to 681 MB (h2)".
        let t = score_table("avrora").unwrap();
        let gmd = t.iter().find(|s| s.code == "GMD").unwrap();
        assert_eq!(gmd.rank, 22);
        assert_eq!(gmd.score, 0);
        assert_eq!(gmd.min, 5.0);
        assert_eq!(gmd.max, 681.0);
        let h2 = score_table("h2").unwrap();
        assert_eq!(h2.iter().find(|s| s.code == "GMD").unwrap().rank, 1);
    }

    #[test]
    fn gmv_is_scored_only_for_h2() {
        let h2 = score_table("h2").unwrap();
        let gmv = h2.iter().find(|s| s.code == "GMV").unwrap();
        assert_eq!(gmv.of, 1);
        assert_eq!(gmv.score, 10);
        let avrora = score_table("avrora").unwrap();
        assert!(avrora.iter().all(|s| s.code != "GMV"));
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(score_table("renaissance").is_none());
    }

    #[test]
    fn metric_ranking_is_sorted_and_complete() {
        let ranking = metric_ranking("ARA").unwrap();
        assert_eq!(ranking.len(), 22);
        assert_eq!(ranking[0].0, "lusearch");
        assert!(ranking.windows(2).all(|w| w[0].2 <= w[1].2));
        assert!(metric_ranking("XXX").is_none());
    }

    #[test]
    fn scores_are_antitone_in_rank() {
        for code in ["ARA", "GMD", "UIP", "USF"] {
            let ranking = metric_ranking(code).unwrap();
            let n = ranking.len();
            let scores: Vec<u8> = ranking
                .iter()
                .map(|(_, _, rank)| score_of(*rank, n))
                .collect();
            assert!(
                scores.windows(2).all(|w| w[0] >= w[1]),
                "{code}: {scores:?}"
            );
        }
    }
}
