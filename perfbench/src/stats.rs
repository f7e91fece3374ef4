//! Order statistics used by every metric: medians and the tail rule.

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, `100 · (n − 10) / n` (nearest-rank definition).
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples beyond it: the `(n − 10)`-th smallest sample. `None` when
/// there are too few samples for any percentile to qualify (`n ≤ 10`).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND; // 1-based
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: sorted(xs)[rank - 1],
        samples: n,
    })
}

/// Median and tail of one window of latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub median: f64,
    pub tail: Tail,
}

impl Window {
    /// `None` when the window is too small to have a tail.
    pub fn of(xs: &[f64]) -> Option<Window> {
        Some(Window {
            median: median(xs)?,
            tail: tail(xs)?,
        })
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
