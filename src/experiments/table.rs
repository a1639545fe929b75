//! Plain-text table rendering for the experiment harness.

/// A simple aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table caption printed above the header.
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// An empty table with the given caption and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Appends a footnote printed under the table.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Column headers, in order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Footnotes, in insertion order.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The table as a JSON object (`{title, headers, rows, notes}`) —
    /// the shape `experiments --json` emits.
    pub fn to_json(&self) -> domatic_telemetry::json::Json {
        use domatic_telemetry::json::Json;
        let strs = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect());
        Json::obj([
            ("title".into(), Json::Str(self.title.clone())),
            ("headers".into(), strs(&self.headers)),
            (
                "rows".into(),
                Json::Arr(self.rows.iter().map(|r| strs(r)).collect()),
            ),
            ("notes".into(), strs(&self.notes)),
        ])
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for r in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(r[c].chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                let pad = widths[c] - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// Formats a float with 2 decimals (the harness's standard precision).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// The canonical digest of the rendered tables, for pinning an
/// experiment's exact output in its tests.
#[cfg(test)]
fn rendered_digest(tables: &[Table]) -> String {
    let mut hasher = domatic_core::hash::CanonicalHasher::new();
    for t in tables {
        hasher.write_str(&t.render());
    }
    format!("{:016x}", hasher.finish())
}

/// Pins an experiment's output: `rows[i]` rows in table `i`, and the
/// rendered bytes by [`rendered_digest`]. A mismatch prints the tables.
#[cfg(test)]
pub(crate) fn assert_pinned(tables: &[Table], rows: &[usize], digest: &str) {
    let rendered: String = tables.iter().map(Table::render).collect();
    let shape: Vec<usize> = tables.iter().map(Table::num_rows).collect();
    assert_eq!(shape, rows, "{rendered}");
    assert_eq!(rendered_digest(tables), digest, "{rendered}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["xxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1], "a    bbbb");
        assert_eq!(lines[3], "xxx  1");
        assert_eq!(lines[4], "y    22");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new("t", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn notes_render() {
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]).note("hello");
        assert!(t.render().contains("note: hello"));
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.005), "1.00"); // bankers-ish rounding of format!
        assert_eq!(f2(2.0), "2.00");
        assert_eq!(f3(0.12345), "0.123");
    }

    #[test]
    fn json_shape_round_trips() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]).note("n");
        let v = domatic_telemetry::json::parse(&t.to_json().render()).unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("demo"));
        let headers = match v.get("headers").unwrap() {
            domatic_telemetry::json::Json::Arr(xs) => xs.len(),
            _ => panic!("headers not an array"),
        };
        assert_eq!(headers, 2);
        assert!(t.to_json().render().contains("\"notes\":[\"n\"]"));
    }
}
