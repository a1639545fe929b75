//! A minimal SVG document builder — just enough shapes for topology
//! figures, no dependencies, everything escaped.

use std::fmt::Write as _;

/// An SVG document under construction.
#[derive(Clone, Debug)]
pub struct SvgDoc {
    width: f64,
    height: f64,
    body: String,
}

/// Escapes text content for XML.
pub fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

impl SvgDoc {
    /// A new document with the given pixel size.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "SVG dimensions must be positive"
        );
        SvgDoc {
            width,
            height,
            body: String::new(),
        }
    }

    /// Adds a filled circle.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str) -> &mut Self {
        writeln!(
            self.body,
            r#"<circle cx="{cx:.2}" cy="{cy:.2}" r="{r:.2}" fill="{fill}"/>"#
        )
        .unwrap();
        self
    }

    /// Adds a line segment.
    pub fn line(
        &mut self,
        x1: f64,
        y1: f64,
        x2: f64,
        y2: f64,
        stroke: &str,
        width: f64,
    ) -> &mut Self {
        writeln!(
            self.body,
            r#"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="{stroke}" stroke-width="{width:.2}"/>"#
        )
        .unwrap();
        self
    }

    /// Adds a text label (content is escaped).
    pub fn text(&mut self, x: f64, y: f64, size: f64, content: &str) -> &mut Self {
        writeln!(
            self.body,
            r#"<text x="{x:.2}" y="{y:.2}" font-size="{size:.1}" font-family="monospace">{}</text>"#,
            escape(content)
        )
        .unwrap();
        self
    }

    /// Finalizes into a complete SVG document string.
    pub fn render(&self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" viewBox=\"0 0 {:.0} {:.0}\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n{}</svg>\n",
            self.width, self.height, self.width, self.height, self.body
        )
    }
}

/// The categorical palette used for class coloring.
pub const PALETTE: [&str; 8] = [
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860", "#da8bc3", "#8c8c8c",
];

/// Palette color for class `i`.
pub fn class_color(i: u32) -> &'static str {
    PALETTE[i as usize % PALETTE.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_structure() {
        let mut d = SvgDoc::new(100.0, 50.0);
        d.circle(10.0, 10.0, 3.0, "#ff0000")
            .line(0.0, 0.0, 100.0, 50.0, "#000000", 1.0)
            .text(1.0, 49.0, 10.0, "hello");
        let s = d.render();
        assert!(s.starts_with("<svg"));
        assert!(s.trim_end().ends_with("</svg>"));
        assert!(s.contains("<circle"));
        assert!(s.contains("<line"));
        assert!(s.contains(">hello</text>"));
        assert!(s.contains("viewBox=\"0 0 100 50\""));
    }

    #[test]
    fn text_is_escaped() {
        let mut d = SvgDoc::new(10.0, 10.0);
        d.text(0.0, 0.0, 8.0, "<a & \"b\">");
        let s = d.render();
        assert!(s.contains("&lt;a &amp; &quot;b&quot;&gt;"));
        assert!(!s.contains("<a &"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimensions_rejected() {
        SvgDoc::new(0.0, 10.0);
    }

    #[test]
    fn palette_cycles() {
        assert_eq!(class_color(0), PALETTE[0]);
        assert_eq!(class_color(8), PALETTE[0]);
        assert_eq!(class_color(9), PALETTE[1]);
    }
}
