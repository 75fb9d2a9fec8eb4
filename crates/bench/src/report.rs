//! Plain-text rendering of figure/table data.

/// A rectangular data table (one paper subplot or table).
#[derive(Clone, Debug)]
pub struct Table {
    /// Title, e.g. `"Figure 5(a) — Experiment 1, RDA, Range, Load 1"`.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let mut header = String::new();
        for (w, c) in widths.iter().zip(&self.columns) {
            header.push_str(&format!("{c:>w$}  "));
        }
        out.push_str(header.trim_end());
        out.push('\n');
        out.push_str(&"-".repeat(header.trim_end().len()));
        out.push('\n');
        for row in &self.rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                line.push_str(&format!("{cell:>w$}  "));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

/// Formats a runtime in milliseconds with sensible precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.4}")
    }
}

/// Formats a unitless ratio.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["N", "time"]);
        t.push_row(vec!["10".into(), "1.23".into()]);
        t.push_row(vec!["100".into(), "45.60".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].ends_with("time"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn fmt_ms_precision_tiers() {
        assert_eq!(fmt_ms(123.4), "123");
        assert_eq!(fmt_ms(12.345), "12.35");
        assert_eq!(fmt_ms(0.01234), "0.0123");
    }

    #[test]
    fn fmt_ratio_two_decimals() {
        assert_eq!(fmt_ratio(2.5), "2.50");
    }
}
