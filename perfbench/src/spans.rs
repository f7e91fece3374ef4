//! Benchmark-side spans around calls into the program's public API.
//!
//! Each span has a name, start and end (ns since the collector's epoch),
//! the span that caused it, and the id of the operation (request) it
//! belongs to, so all spans of one request can be followed together.
//! Spans stay in memory and are written out once, when the run ends.

use std::io::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Operation (request) id shared by the spans of one request.
    pub op: u64,
}

/// An in-memory span collector shared between threads.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update pushes or sets one field, so the data is valid
        // even if a holder panicked.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span starting at `start_ns`; returns its id.
    pub fn open(&self, name: &'static str, start_ns: u64, parent: Option<usize>, op: u64) -> usize {
        let mut s = self.lock();
        s.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent,
            op,
        });
        s.len() - 1
    }

    /// Closes span `id` at `end_ns`.
    pub fn close(&self, id: usize, end_ns: u64) {
        if let Some(s) = self.lock().get_mut(id) {
            s.end_ns = Some(end_ns);
        }
    }

    /// Records a closed span.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let id = self.open(name, start_ns, parent, op);
        self.close(id, end_ns);
        id
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes every span as one JSON line each.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns.map_or("null".to_string(), |e| e.to_string()),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            )?;
        }
        w.flush()
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

/// Self time of every closed span: its duration minus the part of its
/// interval that its closed children cover (children that overlap each
/// other count once). Open spans get `None`.
pub fn self_times(spans: &[Span]) -> Vec<Option<u64>> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
            if let Some(c) = children.get_mut(p) {
                c.push((s.start_ns, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let end = s.end_ns?;
            let dur = end.saturating_sub(s.start_ns);
            // Clip children to the parent and merge overlaps.
            kids.iter_mut()
                .for_each(|k| *k = (k.0.max(s.start_ns), k.1.min(end)));
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids.into_iter().filter(|k| k.1 > k.0) {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            Some(dur - covered.min(dur))
        })
        .collect()
}
