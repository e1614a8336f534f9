//! In-memory span recorder for traced runs.
//!
//! A span is one timed call into a layer: its name, start and end (seconds
//! since recording began), the span that was open when it started, and the
//! rank it ran on. Spans are kept in memory and only read back once the
//! run is over, so recording costs one lock and one push per span.
//! Recording is off by default; [`span`] then only runs its closure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.append` or `sim.kernel.count`.
    pub name: String,
    /// Seconds since [`start_recording`].
    pub start: f64,
    /// Seconds since [`start_recording`].
    pub end: f64,
    /// Index of the enclosing span, if one was open.
    pub parent: Option<usize>,
    /// Rank of the backend that ran the call, for `sim.*` spans.
    pub rank: Option<usize>,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

struct Recorder {
    /// The thread that started the recording; spans from other threads
    /// (e.g. concurrent tests) are not part of it.
    thread: ThreadId,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

// Only a statistic gate: it publishes no data (the recorder itself sits
// behind the mutex), so relaxed loads suffice.
static RECORDING: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

/// Starts a fresh recording, discarding any earlier spans.
pub fn start_recording() {
    *RECORDER.lock().expect("span recorder poisoned") = Some(Recorder {
        thread: std::thread::current().id(),
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
    RECORDING.store(true, Ordering::Relaxed);
}

/// Stops recording and returns every span recorded since
/// [`start_recording`] (empty if recording never started).
pub fn stop_recording() -> Vec<Span> {
    RECORDING.store(false, Ordering::Relaxed);
    RECORDER
        .lock()
        .expect("span recorder poisoned")
        .take()
        .map(|r| r.spans)
        .unwrap_or_default()
}

/// Runs `f` inside a span named `name` when recording is on.
///
/// Only the recording thread's calls are recorded, and spans nest by call
/// order: the benchmark drives every recorded layer from that thread
/// (ranks run one after another), so the open-span stack is the call
/// stack. Ranks run concurrently would need per-rank stacks.
pub fn span<T>(name: &str, rank: Option<usize>, f: impl FnOnce() -> T) -> T {
    span_lazy(|| name.to_string(), rank, f)
}

/// [`span`] with a name built only while recording is on.
pub fn span_lazy<T>(
    name: impl FnOnce() -> String,
    rank: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    if !RECORDING.load(Ordering::Relaxed) {
        return f();
    }
    // The lock is released before `f` runs: `f` may open spans itself.
    let id = {
        let mut guard = RECORDER.lock().expect("span recorder poisoned");
        guard
            .as_mut()
            .filter(|r| r.thread == std::thread::current().id())
            .map(|r| {
                let id = r.spans.len();
                let start = r.origin.elapsed().as_secs_f64();
                let parent = r.open.last().copied();
                r.spans.push(Span {
                    name: name(),
                    start,
                    end: start,
                    parent,
                    rank,
                });
                r.open.push(id);
                id
            })
    };
    let Some(id) = id else {
        return f();
    };
    let out = f();
    let mut guard = RECORDER.lock().expect("span recorder poisoned");
    if let Some(r) = guard.as_mut() {
        let end = r.origin.elapsed().as_secs_f64();
        if let Some(s) = r.spans.get_mut(id) {
            s.end = end;
        }
        r.open.pop();
    }
    out
}

/// Writes `spans` as JSON lines: `name`, `start`, `end` (seconds since
/// recording began), `parent` (line index or null) and `rank` (or null).
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{},\"rank\":{}}}",
            s.name,
            s.start,
            s.end,
            opt(s.parent),
            opt(s.rank)
        )?;
    }
    out.flush()
}

/// Per-name totals over a finished recording.
pub struct SpanTotals<'a> {
    spans: &'a [Span],
    child_secs: Vec<f64>,
}

impl<'a> SpanTotals<'a> {
    /// Indexes `spans` (as returned by [`stop_recording`]).
    pub fn new(spans: &'a [Span]) -> SpanTotals<'a> {
        // Children of one parent run one after another, so the part of a
        // parent covered by its children is the sum of their durations.
        let mut child_secs = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.duration();
            }
        }
        SpanTotals { spans, child_secs }
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.matching(name).map(|(_, s)| s.duration()).sum()
    }

    /// Summed self time (duration minus the part children cover) of every
    /// span named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        self.matching(name)
            .map(|(i, s)| s.duration() - self.child_secs[i])
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.matching(name).count()
    }

    fn matching(&self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "core.count".into(),
                start: 0.0,
                end: 10.0,
                parent: None,
                rank: None,
            },
            Span {
                name: "sim.kernel.count".into(),
                start: 1.0,
                end: 4.0,
                parent: Some(0),
                rank: Some(0),
            },
            Span {
                name: "sim.gather".into(),
                start: 5.0,
                end: 6.0,
                parent: Some(0),
                rank: Some(0),
            },
        ];
        let t = SpanTotals::new(&spans);
        assert_eq!(t.total("core.count"), 10.0);
        assert_eq!(t.self_time("core.count"), 6.0);
        assert_eq!(t.calls("sim.kernel.count"), 1);
    }

    #[test]
    fn other_threads_run_unrecorded_and_unblocked() {
        start_recording();
        let inner = span("outer", None, || {
            // A nested span on another thread must neither deadlock nor
            // join this thread's recording.
            std::thread::scope(|s| {
                s.spawn(|| span("other", None, || span("other.inner", None, || 7)))
                    .join()
                    .unwrap()
            })
        });
        let spans = stop_recording();
        assert_eq!(inner, 7);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "outer");
    }
}
