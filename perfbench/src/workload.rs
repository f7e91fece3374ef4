//! The workloads and the end-to-end metrics every one reports.

use crate::oracle::Tally;
use crate::report::Metric;
use crate::stats::{self, Window};

/// Sets of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DnaLong,
    ProteinAffine,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::DnaLong, Workload::ProteinAffine];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DnaLong => "dna-long",
            Workload::ProteinAffine => "protein-affine",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists: which layers it isolates.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DnaLong => {
                "long linear-gap pairs on one thread: dp fills under the fastlsa-core recursion, where kernel and recomputation changes show"
            }
            Workload::ProteinAffine => {
                "the only workload on the affine recursion and fills; the linear workload is its must-not-regress pair"
            }
        }
    }
}

/// What one untraced run measured.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Total set-up time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Median and tail of the timed phase's op times, ms; `None` when too
    /// few operations completed to have a tail.
    pub latency: Option<Window>,
    /// Correct operations per second.
    pub ops_per_s: f64,
    /// `Σ m·n` of correct operations per second, in units of 10⁹.
    pub gcells_per_s: f64,
    pub peak_rss_mib: f64,
    pub tally: Tally,
}

impl EndToEnd {
    /// The end-to-end metrics, plus human-readable lines describing how
    /// the tail and the failures were counted.
    ///
    /// # Errors
    ///
    /// When a run has no samples for a metric.
    pub fn metrics(&self) -> Result<(Vec<Metric>, Vec<String>), String> {
        let setup = stats::median(&self.setup_s).ok_or("no set-up was timed")?;
        let latency = self.latency.ok_or(format!(
            "no more than {} completed operations",
            stats::TAIL_BEYOND
        ))?;
        let ok_ratio = if self.tally.attempted == 0 {
            0.0
        } else {
            self.tally.ok as f64 / self.tally.attempted as f64
        };
        let metrics = vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("op_p50_ms", latency.median, "ms"),
            Metric::new("op_tail_ms", latency.tail.value, "ms"),
            Metric::new("ops_per_s", self.ops_per_s, "1/s"),
            Metric::new("gcells_per_s", self.gcells_per_s, "Gcell/s"),
            Metric::new("ok_ratio", ok_ratio, "ratio"),
            Metric::new("peak_rss_mib", self.peak_rss_mib, "MiB"),
        ];
        let t = &self.tally;
        let lines = vec![
            format!(
                "op_tail_ms = the highest percentile with {} samples beyond it: p{:.2} of {}",
                stats::TAIL_BEYOND,
                latency.tail.pct,
                latency.tail.samples
            ),
            format!(
                "fail_ratio = {} ({} errors + {} rejections + {} mismatches of {} attempted)",
                t.fail_ratio(),
                t.errors,
                t.rejections,
                t.mismatches,
                t.attempted
            ),
        ];
        Ok((metrics, lines))
    }
}
