//! Plain-text table output for the experiment binaries.

/// A simple table builder: a header row plus data rows, rendered as an
/// aligned text table (for terminal output and EXPERIMENTS.md).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header length.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells, header has {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table as aligned plain text (with the title on top).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("convergence", &["n", "rounds", "note"]);
        t.add_row(vec!["4".into(), "3".into(), "fast".into()]);
        t.add_row(vec![
            "128".into(),
            "17".into(),
            "slower, as expected".into(),
        ]);
        t
    }

    #[test]
    fn text_rendering_is_aligned_and_titled() {
        let text = sample().to_text();
        assert!(text.starts_with("== convergence =="));
        assert!(text.contains("n    rounds"));
        assert!(text.contains("128  17"));
    }

    #[test]
    fn row_count_and_title() {
        let t = sample();
        // Title, header, rule, then one line per data row.
        assert_eq!(t.to_text().lines().count(), 3 + 2);
        assert_eq!(t.title(), "convergence");
        assert_eq!(t.to_string(), t.to_text());
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_rows_panic() {
        let mut t = Table::new("t", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("empty", &["x"]);
        assert_eq!(t.to_text(), "== empty ==\nx\n-\n");
    }
}
