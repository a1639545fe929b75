//! The benchmark's own in-memory spans: one per call into a layer,
//! recorded only in traced runs and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept per run. A longer run keeps its first spans and counts
/// the rest as dropped, so tracing memory stays bounded.
const MAX_SPANS: usize = 1 << 19;

/// One recorded span. Times are ns since the run's trace origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `graph.parse` or `server.queue`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id the span belongs to (0 outside requests).
    pub req: u64,
}

/// Per-name totals: calls, total duration and self time (duration
/// minus the part covered by child spans).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Their summed duration, ms.
    pub total_ms: f64,
    /// Their summed self time, ms.
    pub self_ms: f64,
}

/// A run's span recorder; inert when tracing is off.
pub struct Spans {
    on: bool,
    origin: Instant,
    recs: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            recs: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index for children.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let (s, e) = (self.ns(start), self.ns(end));
        self.add_ns(name, parent, req, s, e)
    }

    /// Records a span from raw offsets (for spans reconstructed from
    /// server-side phase durations).
    pub fn add_ns(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        if self.recs.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.recs.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
        Some(self.recs.len() - 1)
    }

    /// Opens a span whose end is set later by [`Spans::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
    ) -> Option<usize> {
        self.add(name, parent, req, start, start)
    }

    /// Sets the end of an opened span.
    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        if let Some(i) = id {
            let e = self.ns(end);
            let rec = &mut self.recs[i];
            rec.end_ns = e.max(rec.start_ns);
        }
    }

    /// Durations of every span named `name`, µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for s in &self.recs {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (s, child) in self.recs.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name.to_string()).or_default();
            e.count += 1;
            e.total_ms += dur as f64 / 1e6;
            e.self_ms += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (i, s) in self.recs.iter().enumerate() {
            line.clear();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                line,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
            out.write_all(line.as_bytes())?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let p = s.add_ns("pass", None, 0, 0, 10_000_000);
        s.add_ns("core.solve", p, 0, 1_000_000, 7_000_000);
        s.add_ns("schedule.validate", p, 0, 7_000_000, 8_000_000);
        let t = s.self_times();
        assert_eq!(t["pass"].count, 1);
        assert!((t["pass"].total_ms - 10.0).abs() < 1e-9);
        assert!((t["pass"].self_ms - 3.0).abs() < 1e-9);
        assert!((t["core.solve"].self_ms - 6.0).abs() < 1e-9);
    }

    #[test]
    fn recording_off_keeps_nothing() {
        let mut s = Spans::new(false);
        let now = Instant::now();
        assert_eq!(s.add("x", None, 0, now, now), None);
        assert!(s.self_times().is_empty());
    }
}
