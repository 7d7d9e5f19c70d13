//! The mutator progress trace: a piecewise-linear map from wall-clock time
//! to per-worker useful work completed.
//!
//! The engine appends one segment per simulation slice. Stop-the-world
//! pauses appear as zero-rate segments; Shenandoah pacing appears as
//! reduced-rate segments. Request start/end times for the latency-sensitive
//! workloads are recovered by *inverting* this map: a request that needs
//! `d` nanoseconds of service completes at the wall time where the worker's
//! cumulative progress first reaches its cumulative demand. This makes the
//! latency distributions an exact function of the simulated schedule — the
//! piling-up of requests behind a pause (Figure 2's point) falls out for
//! free.

use crate::time::{SimDuration, SimTime};

/// One constant-rate span of mutator execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSegment {
    /// Wall time at which the segment starts.
    pub start: SimTime,
    /// Wall time at which the segment ends.
    pub end: SimTime,
    /// Useful work per wall nanosecond *per worker thread* during the
    /// segment (zero while the world is stopped).
    pub worker_rate: f64,
}

impl ProgressSegment {
    /// Useful work accumulated by one worker across the whole segment.
    pub fn worker_progress(&self) -> f64 {
        (self.end - self.start).as_nanos() as f64 * self.worker_rate
    }
}

/// The complete trace for one run.
///
/// # Examples
///
/// ```
/// use chopin_runtime::progress::ProgressTrace;
/// use chopin_runtime::time::{SimTime, SimDuration};
///
/// let mut trace = ProgressTrace::new();
/// // 100ns of running at rate 1.0, a 50ns pause, 100ns more running.
/// trace.push(SimTime::from_nanos(0), SimTime::from_nanos(100), 1.0);
/// trace.push(SimTime::from_nanos(100), SimTime::from_nanos(150), 0.0);
/// trace.push(SimTime::from_nanos(150), SimTime::from_nanos(250), 1.0);
///
/// // 120ns of demand completes 50ns late because of the pause.
/// let t = trace.time_at_progress(120.0).unwrap();
/// assert_eq!(t.as_nanos(), 170);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgressTrace {
    segments: Vec<ProgressSegment>,
    /// Cumulative per-worker progress at the *end* of each segment.
    cumulative: Vec<f64>,
}

impl ProgressTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ProgressTrace::default()
    }

    /// Append a segment. Adjacent segments with identical rates are merged.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the segment is not contiguous with the
    /// previous one, runs backwards, or has a negative/non-finite rate.
    pub fn push(&mut self, start: SimTime, end: SimTime, worker_rate: f64) {
        debug_assert!(end >= start, "segment runs backwards");
        debug_assert!(
            worker_rate >= 0.0 && worker_rate.is_finite(),
            "invalid rate"
        );
        if let Some(last) = self.segments.last() {
            debug_assert_eq!(last.end, start, "segments must be contiguous");
        }
        if start == end {
            return;
        }
        let prev_cum = self.cumulative.last().copied().unwrap_or(0.0);
        if let (Some(last), Some(last_cum)) = (self.segments.last_mut(), self.cumulative.last_mut())
        {
            if (last.worker_rate - worker_rate).abs() < 1e-15 {
                last.end = end;
                *last_cum = prev_cum + (end - start).as_nanos() as f64 * worker_rate;
                return;
            }
        }
        let seg = ProgressSegment {
            start,
            end,
            worker_rate,
        };
        self.cumulative.push(prev_cum + seg.worker_progress());
        self.segments.push(seg);
    }

    /// The recorded segments.
    pub fn segments(&self) -> &[ProgressSegment] {
        &self.segments
    }

    /// Total per-worker progress over the whole trace.
    pub fn total_worker_progress(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }

    /// Wall time at which the trace ends, if non-empty.
    pub fn end_time(&self) -> Option<SimTime> {
        self.segments.last().map(|s| s.end)
    }

    /// A worker's cumulative progress at wall time `t` (clamped to the
    /// trace's span).
    pub fn progress_at_time(&self, t: SimTime) -> f64 {
        let Some(first) = self.segments.first() else {
            return 0.0;
        };
        if t <= first.start {
            return 0.0;
        }
        // Find the segment containing t.
        let idx = self
            .segments
            .partition_point(|s| s.end < t)
            .min(self.segments.len() - 1);
        let seg = &self.segments[idx];
        let before = if idx == 0 {
            0.0
        } else {
            self.cumulative[idx - 1]
        };
        if t >= seg.end {
            return self.cumulative[idx];
        }
        before + seg.worker_rate * t.saturating_since(seg.start).as_nanos() as f64
    }

    /// The wall time at which a worker's cumulative progress first reaches
    /// `target`. Returns `None` if the trace never accumulates that much
    /// progress.
    pub fn time_at_progress(&self, target: f64) -> Option<SimTime> {
        if target <= 0.0 {
            return self.segments.first().map(|s| s.start);
        }
        // Binary search over cumulative progress at segment ends.
        let idx = self.cumulative.partition_point(|&c| c < target);
        let seg = self.segments.get(idx)?;
        let before = if idx == 0 {
            0.0
        } else {
            self.cumulative[idx - 1]
        };
        let need = target - before;
        debug_assert!(
            seg.worker_rate > 0.0,
            "progress advanced in a zero-rate segment"
        );
        let dt = need / seg.worker_rate;
        Some(seg.start + SimDuration::from_nanos(dt.round() as u64))
    }

    /// A cursor for walking the trace monotonically — O(1) amortised per
    /// lookup when targets are non-decreasing, which is how request streams
    /// are processed.
    pub fn cursor(&self) -> ProgressCursor<'_> {
        ProgressCursor {
            trace: self,
            idx: 0,
        }
    }
}

/// Monotone lookup cursor produced by [`ProgressTrace::cursor`].
#[derive(Debug, Clone)]
pub struct ProgressCursor<'a> {
    trace: &'a ProgressTrace,
    idx: usize,
}

impl ProgressCursor<'_> {
    /// Like [`ProgressTrace::time_at_progress`], but starts scanning from
    /// the previous lookup's segment.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `target` is less than a previous target
    /// (the cursor only moves forward).
    pub fn time_at_progress(&mut self, target: f64) -> Option<SimTime> {
        if target <= 0.0 {
            return self.trace.segments.first().map(|s| s.start);
        }
        while self.idx < self.trace.cumulative.len() && self.trace.cumulative[self.idx] < target {
            self.idx += 1;
        }
        let seg = self.trace.segments.get(self.idx)?;
        let before = if self.idx == 0 {
            0.0
        } else {
            self.trace.cumulative[self.idx - 1]
        };
        let need = target - before;
        let dt = need / seg.worker_rate;
        Some(seg.start + SimDuration::from_nanos(dt.round() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn trace_with_pause() -> ProgressTrace {
        let mut t = ProgressTrace::new();
        t.push(SimTime::from_nanos(0), SimTime::from_nanos(100), 2.0);
        t.push(SimTime::from_nanos(100), SimTime::from_nanos(200), 0.0);
        t.push(SimTime::from_nanos(200), SimTime::from_nanos(300), 1.0);
        t
    }

    #[test]
    fn total_progress_sums_segments() {
        let t = trace_with_pause();
        assert_eq!(t.total_worker_progress(), 300.0);
        assert_eq!(t.end_time(), Some(SimTime::from_nanos(300)));
    }

    #[test]
    fn zero_length_segments_are_dropped() {
        let mut t = ProgressTrace::new();
        t.push(SimTime::from_nanos(0), SimTime::from_nanos(0), 1.0);
        assert!(t.segments().is_empty());
    }

    #[test]
    fn equal_rate_segments_merge() {
        let mut t = ProgressTrace::new();
        t.push(SimTime::from_nanos(0), SimTime::from_nanos(10), 1.0);
        t.push(SimTime::from_nanos(10), SimTime::from_nanos(20), 1.0);
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.total_worker_progress(), 20.0);
    }

    #[test]
    fn lookup_lands_inside_correct_segment() {
        let t = trace_with_pause();
        // 150 units of progress: 100ns gives 200, so 150 is reached at 75ns.
        assert_eq!(t.time_at_progress(150.0), Some(SimTime::from_nanos(75)));
        // 250 units: 200 by t=100, pause, then 50 more at rate 1 → t=250.
        assert_eq!(t.time_at_progress(250.0), Some(SimTime::from_nanos(250)));
        // Exactly the boundary 200 resolves to the end of the first segment.
        assert_eq!(t.time_at_progress(200.0), Some(SimTime::from_nanos(100)));
    }

    #[test]
    fn lookup_beyond_trace_is_none() {
        let t = trace_with_pause();
        assert_eq!(t.time_at_progress(301.0), None);
    }

    #[test]
    fn zero_target_is_trace_start() {
        let t = trace_with_pause();
        assert_eq!(t.time_at_progress(0.0), Some(SimTime::from_nanos(0)));
    }

    #[test]
    fn progress_at_time_is_the_forward_map() {
        let t = trace_with_pause();
        assert_eq!(t.progress_at_time(SimTime::from_nanos(0)), 0.0);
        assert_eq!(t.progress_at_time(SimTime::from_nanos(50)), 100.0);
        assert_eq!(
            t.progress_at_time(SimTime::from_nanos(150)),
            200.0,
            "flat during pause"
        );
        assert_eq!(t.progress_at_time(SimTime::from_nanos(250)), 250.0);
        assert_eq!(
            t.progress_at_time(SimTime::from_nanos(999)),
            300.0,
            "clamped past end"
        );
    }

    #[test]
    fn forward_and_inverse_maps_agree() {
        let t = trace_with_pause();
        for target in [10.0, 150.0, 250.0, 299.0] {
            let time = t.time_at_progress(target).unwrap();
            let back = t.progress_at_time(time);
            assert!((back - target).abs() < 3.0, "{target} -> {time} -> {back}");
        }
    }

    #[test]
    fn cursor_matches_direct_lookup() {
        let t = trace_with_pause();
        let mut c = t.cursor();
        for target in [10.0, 150.0, 200.0, 250.0, 299.0] {
            assert_eq!(c.time_at_progress(target), t.time_at_progress(target));
        }
    }

    proptest! {
        #[test]
        fn prop_lookup_is_monotone(
            rates in proptest::collection::vec(0.0f64..3.0, 1..20),
            targets in proptest::collection::vec(0.0f64..500.0, 1..50),
        ) {
            let mut t = ProgressTrace::new();
            let mut now = SimTime::ZERO;
            for r in rates {
                let next = now + SimDuration::from_nanos(37);
                t.push(now, next, r);
                now = next;
            }
            let mut sorted = targets.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let times: Vec<_> = sorted.iter().map(|&x| t.time_at_progress(x)).collect();
            // Defined lookups must be monotone non-decreasing.
            let defined: Vec<_> = times.iter().flatten().collect();
            for w in defined.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            // Once a lookup fails, all larger targets fail too.
            let first_none = times.iter().position(|x| x.is_none());
            if let Some(i) = first_none {
                prop_assert!(times[i..].iter().all(|x| x.is_none()));
            }
        }
    }
}
