//! In-memory span recording for the traced run.
//!
//! The benchmark's own code records one span around each call into a
//! layer of the program: its name, start, end, parent span and the id of
//! the request (or batch, or design row) it belongs to. Spans stay in
//! memory until the run ends; [`Tracer::write_json`] writes them out and
//! [`self_times`] turns them into per-layer self times.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span, `0` for a root.
    pub parent: u64,
    /// The request, batch or design row the span belongs to.
    pub request: u64,
    /// Layer name, e.g. `queue` or `hw.verilog`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

/// A child interval of a root span: `(name, start, end)`.
pub type Child = (&'static str, Instant, Instant);

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a root span `[start, end]` for `request` with one level
    /// of children.
    pub fn record(
        &self,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        children: &[Child],
    ) {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        let root = spans.len() as u64 + 1;
        spans.push(Span {
            id: root,
            parent: 0,
            request,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
        for &(child, s, e) in children {
            let id = spans.len() as u64 + 1;
            spans.push(Span {
                id,
                parent: root,
                request,
                name: child,
                start_ns: self.offset(s),
                end_ns: self.offset(e),
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
            .clone()
    }

    /// Writes every span as JSON: one `[id, parent, request, name,
    /// start_ns, end_ns]` row per span.
    pub fn write_json(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{{header}, \"spans\": [")?;
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n[{}, {}, {}, \"{}\", {}, {}]",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Total self time and span count of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Sum over the layer's spans of duration minus child coverage.
    pub total_ns: u64,
    /// Number of spans.
    pub count: u64,
}

impl SelfTime {
    /// Mean self time per span in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-layer self time: each span's duration minus the part of its
/// interval that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.total_ns += dur.saturating_sub(covered);
        entry.count += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "queue", 10, 40),
            // Overlaps the first child: the union is [10, 50].
            span(3, 1, "queue", 30, 50),
            // Sticks out past the root: only [90, 100] is covered.
            span(4, 1, "ticket", 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].total_ns, 100 - 40 - 10);
        assert_eq!(
            t["queue"],
            SelfTime {
                total_ns: 50,
                count: 2
            }
        );
        assert_eq!(t["ticket"].mean_us(), 0.03);
    }

    #[test]
    fn recorded_spans_link_children_to_their_root() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(5);
        tracer.record(7, "row", t0, t1, &[("hw.verilog", t0, t1)]);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].request, 7);
        assert_eq!(self_times(&spans)["row"].total_ns, 0);
    }
}
