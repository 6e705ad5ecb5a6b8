//! Plain-text, CSV and Markdown emitters for figure output.

use wsg_sim::stats::geo_mean;

/// A printable result table: header row plus data rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders as an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (comma-separated, no quoting — cells must not contain
    /// commas).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-flavoured Markdown table (first column
    /// left-aligned, the rest right-aligned). `hdpat-sim regen-experiments`
    /// uses this to rewrite the measured tables of EXPERIMENTS.md, so the
    /// rendering must stay byte-stable for identical row data.
    pub fn to_markdown(&self) -> String {
        let escape = |cell: &str| cell.replace('|', "\\|");
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(" | "),
        );
        out.push_str(" |\n|");
        for i in 0..self.headers.len() {
            out.push_str(if i == 0 { "---|" } else { "---:|" });
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(
                &row.iter()
                    .map(|c| escape(c))
                    .collect::<Vec<_>>()
                    .join(" | "),
            );
            out.push_str(" |\n");
        }
        out
    }
}

/// Formats a ratio as `1.57x` style.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats the geometric mean of `values` as a ratio cell, or `n/a` when the
/// mean is undefined (empty input or a non-positive value). Figures use this
/// instead of `geo_mean(..).unwrap_or(0.0)`, which silently rendered an
/// impossible `0.00` speedup for an empty slice.
pub fn gmean_cell(values: &[f64]) -> String {
    match geo_mean(values) {
        Some(g) => ratio(g),
        None => "n/a".into(),
    }
}

/// A figure banner plus the table: the exact text [`emit`] prints.
pub fn render(figure: &str, caption: &str, table: &Table) -> String {
    format!("==== {figure} ====\n{caption}\n\n{}\n", table.to_text())
}

/// Prints a figure banner plus the table (`hdpat-sim figure`).
pub fn emit(figure: &str, caption: &str, table: &Table) {
    print!("{}", render(figure, caption, table));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["bench", "speedup"]);
        t.row(vec!["SPMV", "1.57"]);
        t.row(vec!["A", "2"]);
        let text = t.to_text();
        assert!(text.contains("bench"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1", "2"]);
        let csv = t.to_csv();
        assert_eq!(csv, "x,y\n1,2\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.567), "1.57");
        assert_eq!(pct(0.421), "42.1%");
    }

    #[test]
    fn gmean_cell_renders_na_not_zero() {
        assert_eq!(gmean_cell(&[2.0, 2.0]), "2.00");
        assert_eq!(gmean_cell(&[]), "n/a");
        assert_eq!(gmean_cell(&[1.0, 0.0]), "n/a");
    }

    #[test]
    fn markdown_table_shape() {
        let mut t = Table::new(vec!["bench", "speedup"]);
        t.row(vec!["SPMV", "1.57"]);
        t.row(vec!["with|pipe", "2.00"]);
        assert_eq!(
            t.to_markdown(),
            "| bench | speedup |\n|---|---:|\n| SPMV | 1.57 |\n| with\\|pipe | 2.00 |\n"
        );
    }
}
