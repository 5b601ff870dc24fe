//! Sample summaries: median, quartiles and sample count.

/// A timing reported the way every end-to-end metric is: median, first
/// and third quartile, and how many samples they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarise `samples` (any order). Quartiles use the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so figures here match the ones a reader
/// recomputes from the raw values. A single sample is its own median
/// and quartiles. Returns `None` for no samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => None,
        1 => Some(Summary {
            median: data[0],
            q1: data[0],
            q3: data[0],
            n,
        }),
        _ => {
            let [q1, median, q3] = quartiles(&data);
            Some(Summary { median, q1, q3, n })
        }
    }
}

/// The three cut points of `statistics.quantiles(sorted, n=4,
/// method="exclusive")`; `sorted` holds at least two values.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}
