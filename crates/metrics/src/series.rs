//! Labelled (x, y) series and summary statistics.

/// A named series of `(x, y)` points — one line of a paper figure
/// (e.g. "Ticket" message rate as a function of message size).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }

    /// Geometric mean of `self.y / other.y` over shared x values — the
    /// "X improves over Y by N% on average" numbers the paper quotes.
    pub fn mean_ratio_vs(&self, other: &Series) -> Option<f64> {
        let mut log_sum = 0.0f64;
        let mut n = 0usize;
        for &(x, y) in &self.points {
            if let Some(oy) = other.y_at(x) {
                if y > 0.0 && oy > 0.0 {
                    log_sum += (y / oy).ln();
                    n += 1;
                }
            }
        }
        if n == 0 {
            None
        } else {
            Some((log_sum / n as f64).exp())
        }
    }

    /// Same as [`Self::mean_ratio_vs`] restricted to points with `x <= max_x`
    /// (the paper often quotes improvements "for messages below 32 KB").
    pub fn mean_ratio_vs_below(&self, other: &Series, max_x: f64) -> Option<f64> {
        let clipped = Series {
            label: self.label.clone(),
            points: self
                .points
                .iter()
                .copied()
                .filter(|(x, _)| *x <= max_x)
                .collect(),
        };
        clipped.mean_ratio_vs(other)
    }

    /// Maximum ratio `self.y / other.y` over shared x values ("up to N-fold").
    pub fn max_ratio_vs(&self, other: &Series) -> Option<f64> {
        let mut best: Option<f64> = None;
        for &(x, y) in &self.points {
            if let Some(oy) = other.y_at(x) {
                if y > 0.0 && oy > 0.0 {
                    let r = y / oy;
                    best = Some(best.map_or(r, |b: f64| b.max(r)));
                }
            }
        }
        best
    }
}

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

/// Compute summary statistics over a slice.
pub fn summary(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        return Summary {
            n: 0,
            mean: 0.0,
            min: 0.0,
            max: 0.0,
            stddev: 0.0,
        };
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    Summary {
        n: xs.len(),
        mean,
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        stddev: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut a = Series::new("a");
        let mut b = Series::new("b");
        for x in [1.0, 2.0, 4.0] {
            a.push(x, 2.0 * x);
            b.push(x, x);
        }
        assert!((a.mean_ratio_vs(&b).unwrap() - 2.0).abs() < 1e-12);
        assert!((a.max_ratio_vs(&b).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_below_cutoff() {
        let mut a = Series::new("a");
        let mut b = Series::new("b");
        a.push(1.0, 4.0);
        b.push(1.0, 1.0);
        a.push(100.0, 1.0);
        b.push(100.0, 1.0);
        assert!((a.mean_ratio_vs_below(&b, 10.0).unwrap() - 4.0).abs() < 1e-12);
        assert!(a.mean_ratio_vs(&b).unwrap() < 4.0);
    }

    #[test]
    fn ratio_with_disjoint_x_is_none() {
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        let mut b = Series::new("b");
        b.push(2.0, 1.0);
        assert!(a.mean_ratio_vs(&b).is_none());
    }

    #[test]
    fn summary_stats() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        assert_eq!(summary(&[]).n, 0);
    }
}
