//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the program's public functions: each has a name, a detail tag, a
//! start and end on one monotonic clock, an optional parent span and
//! the id of the request (or sweep scenario) it belongs to. Nothing is
//! written while measuring; [`Tracer::write_jsonl`] dumps every span
//! once the run is over.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `pn-graph.ports`.
    pub name: &'static str,
    /// Free-form tag: protocol, bound provider, hit or miss.
    pub detail: String,
    /// Request or scenario id the span belongs to.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span store; the sweep's bound spans come from worker
/// threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Nanoseconds spent on the tracer's own bookkeeping.
    overhead_ns: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds of `at` on this tracer's clock.
    pub fn at_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        detail: &str,
        req: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let begin = Instant::now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            detail: detail.to_owned(),
            req,
            parent,
            start_ns,
            end_ns,
        });
        let id = spans.len() - 1;
        drop(spans);
        let cost = u64::try_from(begin.elapsed().as_nanos()).unwrap_or(0);
        self.overhead_ns.fetch_add(cost, Ordering::Relaxed);
        id
    }

    /// Opens a span that encloses others; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, detail: &str, req: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, detail, req, parent, now, now)
    }

    /// Sets the end of an opened span to now.
    pub fn close(&self, id: usize) {
        let now = self.now_ns();
        let begin = Instant::now();
        self.spans.lock().expect("span store poisoned")[id].end_ns = now;
        let cost = u64::try_from(begin.elapsed().as_nanos()).unwrap_or(0);
        self.overhead_ns.fetch_add(cost, Ordering::Relaxed);
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in nanoseconds.
    pub fn time<R>(
        &self,
        name: &'static str,
        detail: &str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        self.record(name, detail, req, parent, start, end);
        (out, end - start)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Nanoseconds the tracer spent on its own bookkeeping.
    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns.load(Ordering::Relaxed)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"detail\":\"{}\",\"req\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.detail, s.req, s.start_ns, s.end_ns, selfs[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its child spans.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            detail: String::new(),
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 40),  // overlaps the first child
            span(Some(0), 90, 120), // runs past the parent
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20, 20, 30]);
    }
}
