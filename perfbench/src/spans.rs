//! In-memory spans for the traced run: each has a name, start, end and
//! parent, and all spans of one workload repetition share a run id. They
//! are written out as one Perfetto trace when the benchmark ends.

use chopin_obs::ChromeTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span within a [`Recorder`].
pub type SpanId = u64;

/// One finished span; times in seconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the recorder.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The workload repetition this span belongs to.
    pub run: u64,
    /// Layer-qualified name, e.g. `simulate.cell`.
    pub name: String,
    /// Start, seconds.
    pub start_s: f64,
    /// End, seconds.
    pub end_s: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    /// The id the span will carry.
    pub id: SpanId,
    parent: Option<SpanId>,
    name: String,
    start_s: f64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    run: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Tag every span opened from now on with run id `run`.
    pub fn set_run(&self, run: u64) {
        self.run.store(run, Ordering::Relaxed);
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Start a span under `parent`.
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            start_s: self.now_s(),
        }
    }

    /// End a span; returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            run: self.run.load(Ordering::Relaxed),
            name: open.name,
            start_s: open.start_s,
            end_s: self.now_s(),
        };
        let duration = span.duration();
        self.spans
            .lock()
            .expect("span recorder lock poisoned by a panicking span")
            .push(span);
        duration
    }

    /// Run `f` inside a span under `parent`; `f` receives the span's id
    /// so it can parent spans of its own.
    pub fn time<T>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> T) -> T {
        let open = self.open(name, parent);
        let out = f(open.id);
        self.close(open);
        out
    }

    /// Every finished span so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder lock poisoned by a panicking span")
            .clone()
    }
}

/// The spans of run `run` named `name`.
pub fn named<'a>(spans: &'a [Span], run: u64, name: &'a str) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| s.run == run && s.name == name)
}

/// The direct children of span `id`.
pub fn children(spans: &[Span], id: SpanId) -> impl Iterator<Item = &Span> {
    spans.iter().filter(move |s| s.parent == Some(id))
}

/// Seconds covered by the union of `intervals`.
pub fn covered(intervals: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut intervals: Vec<(f64, f64)> = intervals.filter(|(a, b)| b > a).collect();
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_time(spans: &[Span], span: &Span) -> f64 {
    let clipped =
        children(spans, span.id).map(|c| (c.start_s.max(span.start_s), c.end_s.min(span.end_s)));
    span.duration() - covered(clipped)
}

/// Render the spans as one Chrome/Perfetto trace. Each run gets as many
/// tracks as it had concurrent spans; a span goes on the first track
/// where it nests inside whatever is still open there.
pub fn to_trace(spans: &[Span], run_names: &[String]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by(|a, b| {
        a.run
            .cmp(&b.run)
            .then(a.start_s.total_cmp(&b.start_s))
            .then(b.end_s.total_cmp(&a.end_s))
    });
    let mut run = u64::MAX;
    let mut tracks: Vec<Vec<f64>> = Vec::new();
    for span in sorted {
        if span.run != run {
            run = span.run;
            tracks.clear();
        }
        let lane = tracks
            .iter_mut()
            .position(|open| {
                while open.last().is_some_and(|&end| end <= span.start_s) {
                    open.pop();
                }
                open.last().is_none_or(|&end| end >= span.end_s)
            })
            .unwrap_or_else(|| {
                tracks.push(Vec::new());
                tracks.len() - 1
            });
        tracks[lane].push(span.end_s);
        let tid = u32::try_from(run * 64 + lane as u64 + 1).unwrap_or(u32::MAX);
        let label = run_names.get(run as usize).map_or("run", String::as_str);
        trace.thread_name(tid, &format!("{label} · track {lane}"));
        trace.span(tid, &span.name, span.start_s * 1e6, span.end_s * 1e6);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: format!("s{id}"),
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 2.0, 5.0),
            span(4, Some(1), 8.0, 12.0),
            span(5, Some(2), 1.0, 2.0),
        ];
        // Children cover [1,5] and [8,10]: 6 of 10 seconds.
        assert!((self_time(&spans, &spans[0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_spans_get_their_own_tracks() {
        let spans = vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 2.0, 5.0),
        ];
        let json = to_trace(&spans, &["r".to_string()]).to_json();
        assert!(json.contains("r · track 0"));
        assert!(json.contains("r · track 1"));
        assert!(!json.contains("r · track 2"));
    }
}
