//! The human-readable snapshot consumer: aligned plain-text tables.
//!
//! Machine output needs no sink: `experiments --json` writes
//! [`Snapshot::to_json`] into its own JSON-lines record.

use crate::snapshot::{format_ns, Snapshot};
use std::io::{self, Write};

/// Aligned plain-text tables, for terminals.
pub struct TableSink<W: Write> {
    out: W,
}

impl<W: Write> TableSink<W> {
    /// A table sink writing to `out`.
    pub fn new(out: W) -> Self {
        TableSink { out }
    }

    /// The underlying writer (to flush or inspect).
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Writes one snapshot under `label`.
    pub fn emit(&mut self, label: &str, snapshot: &Snapshot) -> io::Result<()> {
        writeln!(self.out, "=== telemetry: {label} ===")?;
        if !snapshot.counters.is_empty() {
            let width = snapshot
                .counters
                .keys()
                .map(|k| k.chars().count())
                .max()
                .unwrap_or(0);
            writeln!(self.out, "counters:")?;
            for (name, value) in &snapshot.counters {
                writeln!(self.out, "  {name:<width$}  {value:>14}")?;
            }
        }
        if !snapshot.gauges.is_empty() {
            let width = snapshot
                .gauges
                .keys()
                .map(|k| k.chars().count())
                .max()
                .unwrap_or(0);
            writeln!(self.out, "gauges:")?;
            for (name, value) in &snapshot.gauges {
                writeln!(self.out, "  {name:<width$}  {value:>14}")?;
            }
        }
        if !snapshot.histograms.is_empty() {
            writeln!(self.out, "histograms (count mean p50 p90 p99 max):")?;
            for (name, h) in &snapshot.histograms {
                writeln!(
                    self.out,
                    "  {name}  {} {:.1} {} {} {} {}",
                    h.count, h.mean, h.p50, h.p90, h.p99, h.max
                )?;
            }
        }
        if !snapshot.spans.is_empty() {
            writeln!(self.out, "spans (count, total wall):")?;
            for line in snapshot.render_span_tree().lines() {
                writeln!(self.out, "  {line}")?;
            }
            let top_total: u64 = snapshot
                .spans
                .iter()
                .filter(|(p, _)| !p.contains('/'))
                .map(|(_, s)| s.total_ns)
                .sum();
            writeln!(self.out, "  total (top-level): {}", format_ns(top_total))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SpanStat;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("tx".into(), 12);
        s.spans.insert(
            "run".into(),
            SpanStat {
                count: 1,
                total_ns: 1_000,
            },
        );
        s
    }

    #[test]
    fn table_sink_mentions_everything() {
        let mut sink = TableSink::new(Vec::new());
        sink.emit("demo", &sample()).unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert!(text.contains("telemetry: demo"));
        assert!(text.contains("tx"));
        assert!(text.contains("run"));
        assert!(text.contains("total (top-level): 1.00µs"));
    }
}
