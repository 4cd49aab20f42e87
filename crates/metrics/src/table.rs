//! ASCII tables and bar charts for harness output.
//!
//! A [`Table`] is every human view *and* every CSV artifact in the
//! workspace: reports are written only as JSON, and a caller that prints
//! or exports one picks its cells into a table. [`Table::to_csv`] is the
//! only code that writes a CSV row; [`Table::render`] is the aligned text.

/// Column-aligned ASCII table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row.
    ///
    /// # Panics
    /// When the row does not have exactly one cell per header column: a
    /// miscounted row would otherwise shift or drop a CSV column silently.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "table row has {} cells but the header has {} columns",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with ` | ` separators and a dashed underline.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join(" | ")
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 3 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// The same cells as CSV: the header line, then one comma-joined line
    /// per row. A cell holding `,`, `"`, `\r` or `\n` is quoted RFC 4180
    /// style (inner `"` doubled); every other cell is written as-is.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for line in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in line.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\r', '\n']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Render a labelled horizontal bar chart (used for figure output).
///
/// `max_width` is the bar length of the largest value; all bars scale
/// linearly. Values must be non-negative.
pub fn bar_chart(entries: &[(String, f64)], max_width: usize) -> String {
    let peak = entries.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    let label_w = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in entries {
        let w = if peak > 0.0 { (v / peak * max_width as f64).round() as usize } else { 0 };
        out.push_str(&format!("{label:<label_w$} | {} {v:.4}\n", "#".repeat(w)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["workload", "baseline", "cagc"]);
        t.row(vec!["Mail", "1.00", "0.30"]);
        t.row(vec!["Homes-longer-name", "1.00", "0.66"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // All separator positions align.
        let pos: Vec<usize> = lines[0].match_indices('|').map(|(i, _)| i).collect();
        for l in &lines[2..] {
            let p: Vec<usize> = l.match_indices('|').map(|(i, _)| i).collect();
            assert_eq!(p, pos, "misaligned row: {l}");
        }
    }

    #[test]
    #[should_panic(expected = "table row has 1 cells but the header has 3 columns")]
    fn a_short_row_panics_naming_both_lengths() {
        Table::new(vec!["a", "b", "c"]).row(vec!["x"]);
    }

    #[test]
    #[should_panic(expected = "table row has 4 cells but the header has 3 columns")]
    fn a_long_row_panics_naming_both_lengths() {
        Table::new(vec!["a", "b", "c"]).row(vec!["1", "2", "3", "4"]);
    }

    #[test]
    fn csv_quotes_only_cells_that_need_it() {
        let mut t = Table::new(vec!["name", "n"]);
        t.row(vec!["a,b", "1"]);
        t.row(vec!["say \"hi\"", "2"]);
        t.row(vec!["two\nlines", "3"]);
        t.row(vec!["cr\r", "4"]);
        t.row(vec!["plain", "5"]);
        assert_eq!(
            t.to_csv(),
            "name,n\n\"a,b\",1\n\"say \"\"hi\"\"\",2\n\"two\nlines\",3\n\"cr\r\",4\nplain,5\n"
        );
        assert_eq!(Table::new(vec!["only", "header"]).to_csv(), "only,header\n");
    }

    #[test]
    fn bar_chart_scales_to_peak() {
        let chart = bar_chart(
            &[("base".to_string(), 2.0), ("cagc".to_string(), 1.0)],
            10,
        );
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines[0].matches('#').count(), 10);
        assert_eq!(lines[1].matches('#').count(), 5);
    }

    #[test]
    fn bar_chart_handles_all_zero() {
        let chart = bar_chart(&[("z".to_string(), 0.0)], 10);
        assert!(!chart.contains('#'));
    }
}
