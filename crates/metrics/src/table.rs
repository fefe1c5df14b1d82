//! Fixed-width table rendering for figure binaries.
//!
//! Every experiment binary prints its results as one of these tables, so
//! `cargo run -p mtmpi-bench --bin figXX` output reads like the
//! corresponding figure's data.

use crate::series::Series;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Build a table from series sharing an x axis: first column is x, one
    /// column per series.
    pub fn from_series(x_label: &str, series: &[Series]) -> Self {
        let mut header = vec![x_label.to_owned()];
        header.extend(series.iter().map(|s| s.label.clone()));
        let mut xs: Vec<f64> = series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut t = Self {
            header,
            rows: Vec::new(),
        };
        for x in xs {
            let mut row = vec![fmt_num(x)];
            for s in series {
                row.push(s.y_at(x).map_or_else(|| "-".to_owned(), fmt_num));
            }
            t.rows.push(row);
        }
        t
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>w$}", c, w = width[i]));
            }
            out.push('\n');
        };
        fmt_row(&self.header, &width, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            fmt_row(r, &width, &mut out);
        }
        out
    }
}

/// Human-friendly number formatting: integers plain, large values with few
/// decimals, small values with more precision.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["size", "rate"]);
        t.row(vec!["1".into(), "1000".into()]);
        t.row(vec!["1048576".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("size"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn from_series_merges_x() {
        let mut a = Series::new("A");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("B");
        b.push(2.0, 200.0);
        let t = Table::from_series("x", &[a, b]);
        let s = t.render();
        assert_eq!(s.lines().count(), 4, "header, rule and two x rows: {s}");
        assert!(
            s.lines().nth(2).unwrap().ends_with(" -"),
            "missing cell dashed: {s}"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn num_formatting() {
        assert_eq!(fmt_num(4.0), "4");
        assert_eq!(fmt_num(1234.5), "1234.5");
        assert_eq!(fmt_num(0.12345), "0.1235");
    }
}
