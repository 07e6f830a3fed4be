//! Paper-style figure tables.
//!
//! The paper's figures are grouped bar charts: systems on the outer axis,
//! a swept parameter (database size, rows per transaction, ...) on the
//! inner axis, and either a scalar (IPC) or a six-component stall
//! breakdown per bar. This module renders the same data as aligned text,
//! markdown, and CSV so `results/figures.md` can be regenerated mechanically.

use std::fmt::Write as _;

use serde::Serialize;
use uarch_sim::StallEvent;

/// A figure whose bars are single scalars (e.g. IPC, engine-time share).
#[derive(Clone, Debug, Serialize)]
pub struct ScalarFigure {
    /// Figure id, e.g. "fig1-ro".
    pub id: String,
    /// Caption.
    pub title: String,
    /// Metric name for the value column, e.g. "IPC".
    pub metric: String,
    /// Outer axis labels (systems).
    pub groups: Vec<String>,
    /// Inner axis labels (sweep points); may be a single empty label.
    pub xlabels: Vec<String>,
    /// `values[group][x]`.
    pub values: Vec<Vec<f64>>,
}

/// A figure whose bars carry the six-class stall breakdown.
#[derive(Clone, Debug, Serialize)]
pub struct StallFigure {
    /// Figure id, e.g. "fig2-ro".
    pub id: String,
    /// Caption.
    pub title: String,
    /// Unit of the values, e.g. "stall cycles / k-instr".
    pub unit: String,
    /// Outer axis labels (systems).
    pub groups: Vec<String>,
    /// Inner axis labels (sweep points).
    pub xlabels: Vec<String>,
    /// `cells[group][x][event]`.
    pub cells: Vec<Vec<[f64; 6]>>,
}

impl ScalarFigure {
    /// Render as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut rows = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            for (x, xl) in self.xlabels.iter().enumerate() {
                rows.push(vec![
                    group.clone(),
                    xl.clone(),
                    format!("{:.3}", self.values[g][x]),
                ]);
            }
        }
        let mut out = format!("## {} — {}\n", self.id, self.title);
        out.push_str(&text_table(&["system", "x", &self.metric], &rows));
        out
    }

    /// Render as a markdown table.
    pub fn render_markdown(&self) -> String {
        let mut rows = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            for (x, xl) in self.xlabels.iter().enumerate() {
                rows.push(vec![
                    group.clone(),
                    xl.clone(),
                    format!("{:.3}", self.values[g][x]),
                ]);
            }
        }
        markdown_table(&["system", "x", &self.metric], &rows)
    }

    /// Render as CSV (header + rows).
    pub fn render_csv(&self) -> String {
        let mut out = format!("figure,system,x,{}\n", self.metric);
        for (g, group) in self.groups.iter().enumerate() {
            for (x, xl) in self.xlabels.iter().enumerate() {
                let _ = writeln!(out, "{},{},{},{:.6}", self.id, group, xl, self.values[g][x]);
            }
        }
        out
    }
}

impl StallFigure {
    /// Render as an aligned text table with one column per miss class plus
    /// instruction/data/total summaries.
    pub fn render_text(&self) -> String {
        let mut out = format!("## {} — {} [{}]\n", self.id, self.title, self.unit);
        out.push_str(&text_table(&self.headers(), &self.rows()));
        out
    }

    /// Render as a markdown table.
    pub fn render_markdown(&self) -> String {
        markdown_table(&self.headers(), &self.rows())
    }

    /// Render as CSV.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("figure,system,x,l1i,l2i,llc_i,l1d,l2d,llc_d,total\n");
        for (g, group) in self.groups.iter().enumerate() {
            for (x, xl) in self.xlabels.iter().enumerate() {
                let c = &self.cells[g][x];
                let total: f64 = c.iter().sum();
                let _ = writeln!(
                    out,
                    "{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
                    self.id, group, xl, c[0], c[1], c[2], c[3], c[4], c[5], total
                );
            }
        }
        out
    }

    fn headers(&self) -> Vec<String> {
        let mut h = vec!["system".to_string(), "x".to_string()];
        h.extend(StallEvent::ALL.iter().map(|e| e.label().to_string()));
        h.push("I-total".into());
        h.push("D-total".into());
        h.push("total".into());
        h
    }

    fn rows(&self) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            for (x, xl) in self.xlabels.iter().enumerate() {
                let c = &self.cells[g][x];
                let i_total: f64 = c[..3].iter().sum();
                let d_total: f64 = c[3..].iter().sum();
                let mut row = vec![group.clone(), xl.clone()];
                row.extend(c.iter().map(|v| format!("{v:.1}")));
                row.push(format!("{i_total:.1}"));
                row.push(format!("{d_total:.1}"));
                row.push(format!("{:.1}", i_total + d_total));
                rows.push(row);
            }
        }
        rows
    }
}

fn headers_owned(headers: &[impl AsRef<str>]) -> Vec<String> {
    headers.iter().map(|h| h.as_ref().to_string()).collect()
}

/// Aligned plain-text table.
pub fn text_table(headers: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let headers = headers_owned(headers);
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", c, w = widths[i]);
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// GitHub-flavoured markdown table.
pub fn markdown_table(headers: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let headers = headers_owned(headers);
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    out.push_str(&"---|".repeat(headers.len()));
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar() -> ScalarFigure {
        ScalarFigure {
            id: "figX".into(),
            title: "test".into(),
            metric: "IPC".into(),
            groups: vec!["A".into(), "B".into()],
            xlabels: vec!["1".into(), "2".into()],
            values: vec![vec![0.5, 0.6], vec![1.5, 1.6]],
        }
    }

    #[test]
    fn scalar_csv_has_all_cells() {
        let csv = scalar().render_csv();
        assert_eq!(csv.lines().count(), 5); // header + 4 cells
        assert!(csv.contains("figX,B,2,1.600000"));
    }

    #[test]
    fn scalar_markdown_is_well_formed() {
        let md = scalar().render_markdown();
        assert!(md.starts_with("| system | x | IPC |"));
        assert_eq!(md.lines().count(), 6);
    }

    #[test]
    fn stall_rows_include_totals() {
        let f = StallFigure {
            id: "figY".into(),
            title: "stalls".into(),
            unit: "spki".into(),
            groups: vec!["A".into()],
            xlabels: vec!["x".into()],
            cells: vec![vec![[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]],
        };
        let text = f.render_text();
        assert!(text.contains("6.0")); // I-total
        assert!(text.contains("15.0")); // D-total
        assert!(text.contains("21.0")); // grand total
        let csv = f.render_csv();
        assert!(csv.contains("21.000"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let _ = text_table(&["a", "b"], &[vec!["only-one".to_string()]]);
    }
}
