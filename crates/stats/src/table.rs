//! Aligned text tables for experiment reports.
//!
//! The `repro` binary prints one table per experiment in the same "rows and series"
//! shape the paper's claims take; this module keeps that formatting in one place so the tables
//! look identical across experiments.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple table with a header row, used for experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<(String, Align)>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: Vec<(String, Align)>) -> Self {
        Table { title: title.into(), columns, rows: Vec::new() }
    }

    /// Convenience constructor from `&str` headers, all right-aligned except the first column.
    pub fn with_headers(title: impl Into<String>, headers: &[&str]) -> Self {
        let columns = headers
            .iter()
            .enumerate()
            .map(|(i, h)| ((*h).to_string(), if i == 0 { Align::Left } else { Align::Right }))
            .collect();
        Table::new(title, columns)
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells does not match the number of columns.
    pub fn add_row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.columns.len(), "row width must match the header");
        self.rows.push(cells);
        self
    }

    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|(h, _)| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> =
            self.columns.iter().enumerate().map(|(i, (h, a))| pad(h, widths[i], *a)).collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  ")
        );
        for row in &self.rows {
            let cells: Vec<String> =
                row.iter().enumerate().map(|(i, c)| pad(c, widths[i], self.columns[i].1)).collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }
}

fn pad(text: &str, width: usize, align: Align) -> String {
    match align {
        Align::Left => format!("{text:<width$}"),
        Align::Right => format!("{text:>width$}"),
    }
}

/// Formats a float with a sensible number of significant digits for table cells.
pub fn fmt_float(value: f64) -> String {
    if !value.is_finite() {
        return format!("{value}");
    }
    if value == 0.0 {
        return "0".to_string();
    }
    let abs = value.abs();
    if abs >= 1000.0 {
        format!("{value:.0}")
    } else if abs >= 10.0 {
        format!("{value:.1}")
    } else if abs >= 0.01 {
        format!("{value:.3}")
    } else {
        format!("{value:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::with_headers("demo", &["graph", "n", "rounds"]);
        t.add_row(vec!["complete".into(), "1024".into(), "11.5".into()]);
        t.add_row(vec!["torus".into(), "32".into(), "140".into()]);
        let rendered = t.render();
        assert!(rendered.contains("== demo =="));
        assert!(rendered.contains("graph"));
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 2 + 1 + t.num_rows());
        // All data lines have the same width.
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::with_headers("bad", &["a", "b"]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_float(0.0), "0");
        assert_eq!(fmt_float(12345.6), "12346");
        assert_eq!(fmt_float(42.25), "42.2");
        assert_eq!(fmt_float(6.54321), "6.543");
        assert_eq!(fmt_float(0.00002), "2.00e-5");
        assert_eq!(fmt_float(f64::INFINITY), "inf");
    }

    #[test]
    fn title_and_counters() {
        let t = Table::with_headers("empty", &["x"]);
        assert_eq!(t.title(), "empty");
        assert_eq!(t.num_rows(), 0);
        assert!(t.render().contains("== empty =="));
    }
}
