//! Point-in-time registry state: what the table sink prints and the
//! experiments JSON-lines records embed.

use crate::hist::{BucketSummary, HistSummary};
use crate::json::Json;
use crate::registry::SpanStat;
use std::collections::BTreeMap;

/// One labeled-histogram family at snapshot time: canonical label string
/// (see [`crate::registry::label_string`]) → per-cell bucket summary.
pub type FamilySummary = BTreeMap<String, BucketSummary>;

/// Everything a [`crate::registry::Registry`] held at snapshot time.
/// BTreeMaps keep rendering deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (point-in-time process facts).
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Labeled explicit-bucket histogram families by family name.
    pub labeled: BTreeMap<String, FamilySummary>,
    /// Span aggregates by `a/b/c` path.
    pub spans: BTreeMap<String, SpanStat>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.labeled.is_empty()
            && self.spans.is_empty()
    }

    /// Everything recorded since `prev` — the rate-computation primitive
    /// `domatic top` refreshes on. Counters, histogram tallies, labeled
    /// bucket counts, and span aggregates subtract (saturating, so a
    /// registry reset between snapshots yields zeros, not wraparound);
    /// gauges and quantile estimates are point-in-time facts and keep
    /// `self`'s values.
    pub fn delta(&self, prev: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (
                        k.clone(),
                        v.saturating_sub(prev.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let mut d = *h;
                    if let Some(p) = prev.histograms.get(k) {
                        d.count = h.count.saturating_sub(p.count);
                        d.sum = h.sum.saturating_sub(p.sum);
                        d.mean = if d.count == 0 {
                            0.0
                        } else {
                            d.sum as f64 / d.count as f64
                        };
                    }
                    (k.clone(), d)
                })
                .collect(),
            labeled: self
                .labeled
                .iter()
                .map(|(family, cells)| {
                    let prev_cells = prev.labeled.get(family);
                    (
                        family.clone(),
                        cells
                            .iter()
                            .map(|(k, s)| {
                                let d = match prev_cells.and_then(|p| p.get(k)) {
                                    Some(p) => s.delta(p),
                                    None => s.clone(),
                                };
                                (k.clone(), d)
                            })
                            .collect(),
                    )
                })
                .collect(),
            spans: self
                .spans
                .iter()
                .map(|(k, s)| {
                    let p = prev.spans.get(k).copied().unwrap_or_default();
                    (
                        k.clone(),
                        SpanStat {
                            count: s.count.saturating_sub(p.count),
                            total_ns: s.total_ns.saturating_sub(p.total_ns),
                        },
                    )
                })
                .collect(),
        }
    }

    /// The snapshot as a JSON object:
    ///
    /// ```json
    /// {"counters": {"name": 1},
    ///  "gauges": {"name": 4},
    ///  "histograms": {"name": {"count":..,"sum":..,"mean":..,"p50":..,"p90":..,"p99":..,"max":..}},
    ///  "labeled": {"family": {"op=\"solve\"": {"bounds":[..],"counts":[..],"count":..,"sum":..}}},
    ///  "spans": {"a/b": {"count":..,"total_ns":..}}}
    /// ```
    ///
    /// [`Snapshot::from_json`] inverts this exactly.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Int(v as i128)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Int(v as i128)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::obj([
                        ("count".into(), Json::Int(h.count as i128)),
                        ("sum".into(), Json::Int(h.sum as i128)),
                        ("mean".into(), Json::Num(h.mean)),
                        ("p50".into(), Json::Int(h.p50 as i128)),
                        ("p90".into(), Json::Int(h.p90 as i128)),
                        ("p99".into(), Json::Int(h.p99 as i128)),
                        ("max".into(), Json::Int(h.max as i128)),
                    ]),
                )
            })
            .collect();
        let labeled = self
            .labeled
            .iter()
            .map(|(family, cells)| {
                (
                    family.clone(),
                    Json::Obj(
                        cells
                            .iter()
                            .map(|(k, s)| {
                                (
                                    k.clone(),
                                    Json::obj([
                                        (
                                            "bounds".into(),
                                            Json::Arr(
                                                s.bounds
                                                    .iter()
                                                    .map(|&b| Json::Int(b as i128))
                                                    .collect(),
                                            ),
                                        ),
                                        (
                                            "counts".into(),
                                            Json::Arr(
                                                s.counts
                                                    .iter()
                                                    .map(|&c| Json::Int(c as i128))
                                                    .collect(),
                                            ),
                                        ),
                                        ("count".into(), Json::Int(s.count as i128)),
                                        ("sum".into(), Json::Int(s.sum as i128)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Json::obj([
                        ("count".into(), Json::Int(s.count as i128)),
                        ("total_ns".into(), Json::Int(s.total_ns as i128)),
                    ]),
                )
            })
            .collect();
        Json::Obj(
            [
                ("counters".to_string(), Json::Obj(counters)),
                ("gauges".to_string(), Json::Obj(gauges)),
                ("histograms".to_string(), Json::Obj(histograms)),
                ("labeled".to_string(), Json::Obj(labeled)),
                ("spans".to_string(), Json::Obj(spans)),
            ]
            .into(),
        )
    }

    /// Reconstructs a snapshot from [`Snapshot::to_json`] output — the
    /// round-trip that lets downstream tooling (and the tests pinning
    /// the exposition renderer's input shape) consume the telemetry of
    /// the experiments JSON-lines format without a schema drift going
    /// unnoticed. Sections may be absent (treated as empty); malformed
    /// values are an error.
    pub fn from_json(v: &Json) -> Result<Snapshot, String> {
        fn obj<'a>(v: &'a Json, key: &str) -> Result<Vec<(&'a String, &'a Json)>, String> {
            match v.get(key) {
                None => Ok(Vec::new()),
                Some(Json::Obj(m)) => Ok(m.iter().collect()),
                Some(_) => Err(format!("'{key}' must be an object")),
            }
        }
        fn uint(v: &Json, key: &str) -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_int)
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("'{key}' must be a non-negative integer"))
        }
        fn uint_arr(v: &Json, key: &str) -> Result<Vec<u64>, String> {
            match v.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|x| {
                        x.as_int()
                            .and_then(|i| u64::try_from(i).ok())
                            .ok_or_else(|| format!("'{key}' holds a non-integer"))
                    })
                    .collect(),
                _ => Err(format!("'{key}' must be an array")),
            }
        }
        let mut snap = Snapshot::default();
        for (k, v) in obj(v, "counters")? {
            let n = v
                .as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("counter '{k}' must be a non-negative integer"))?;
            snap.counters.insert(k.clone(), n);
        }
        for (k, v) in obj(v, "gauges")? {
            let n = v
                .as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("gauge '{k}' must be a non-negative integer"))?;
            snap.gauges.insert(k.clone(), n);
        }
        for (k, h) in obj(v, "histograms")? {
            snap.histograms.insert(
                k.clone(),
                HistSummary {
                    count: uint(h, "count")?,
                    sum: uint(h, "sum")?,
                    mean: h
                        .get("mean")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("histogram '{k}' lacks a numeric mean"))?,
                    p50: uint(h, "p50")?,
                    p90: uint(h, "p90")?,
                    p99: uint(h, "p99")?,
                    max: uint(h, "max")?,
                },
            );
        }
        for (family, cells) in obj(v, "labeled")? {
            let mut fam = FamilySummary::new();
            for (label, s) in match cells {
                Json::Obj(m) => m.iter(),
                _ => return Err(format!("labeled family '{family}' must be an object")),
            } {
                fam.insert(
                    label.clone(),
                    BucketSummary {
                        bounds: uint_arr(s, "bounds")?,
                        counts: uint_arr(s, "counts")?,
                        count: uint(s, "count")?,
                        sum: uint(s, "sum")?,
                    },
                );
            }
            snap.labeled.insert(family.clone(), fam);
        }
        for (path, s) in obj(v, "spans")? {
            snap.spans.insert(
                path.clone(),
                SpanStat {
                    count: uint(s, "count")?,
                    total_ns: uint(s, "total_ns")?,
                },
            );
        }
        Ok(snap)
    }

    /// Renders the span aggregates as an indented tree, children under
    /// their `parent/child` prefixes, siblings in path order:
    ///
    /// ```text
    /// schedule                      1×      1.24ms
    ///   uniform.color_assign        8×    310.00µs
    /// ```
    pub fn render_span_tree(&self) -> String {
        let mut out = String::new();
        let width = self
            .spans
            .keys()
            .map(|p| {
                let depth = p.matches('/').count();
                let leaf = p.rsplit('/').next().unwrap_or(p);
                2 * depth + leaf.chars().count()
            })
            .max()
            .unwrap_or(0)
            .max(8);
        for (path, stat) in &self.spans {
            let depth = path.matches('/').count();
            let leaf = path.rsplit('/').next().unwrap_or(path);
            let indent = "  ".repeat(depth);
            let label = format!("{indent}{leaf}");
            let pad = width - (2 * depth + leaf.chars().count());
            out.push_str(&format!(
                "{label}{}  {:>8}×  {:>12}\n",
                " ".repeat(pad),
                stat.count,
                format_ns(stat.total_ns),
            ));
        }
        out
    }
}

/// Human duration: picks ns/µs/ms/s to keep 3 significant digits.
pub fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.2}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(5), "5ns");
        assert_eq!(format_ns(1_500), "1.50µs");
        assert_eq!(format_ns(2_000_000), "2.00ms");
        assert_eq!(format_ns(3_100_000_000), "3.10s");
    }

    #[test]
    fn span_tree_indents_children() {
        let mut snap = Snapshot::default();
        snap.spans.insert(
            "a".into(),
            SpanStat {
                count: 1,
                total_ns: 10,
            },
        );
        snap.spans.insert(
            "a/b".into(),
            SpanStat {
                count: 2,
                total_ns: 5,
            },
        );
        let tree = snap.render_span_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("  b "));
    }

    #[test]
    fn json_shape() {
        let mut snap = Snapshot::default();
        snap.counters.insert("c".into(), 7);
        let j = snap.to_json();
        assert_eq!(
            j.get("counters").unwrap().get("c").unwrap().as_int(),
            Some(7)
        );
        assert!(j.get("spans").is_some());
    }
}
