//! Durable and in-memory checkpoint sinks.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fastlsa_core::checkpoint::{CheckpointSink, CheckpointState};
use fastlsa_core::FastLsaConfig;
use flsa_metrics::{names, Counter, Histogram, Registry};

use crate::format::{encode, DegradeNote, Snapshot, SnapshotMeta};
use crate::CheckpointError;

/// Reads and verifies a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, CheckpointError> {
    let bytes =
        fs::read(path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    crate::format::decode(&bytes)
}

/// Atomic, double-buffered snapshot writer.
///
/// Each save encodes the full snapshot, writes it to one of two
/// alternating temp names next to the target, fsyncs the file, then
/// renames it over the target (and best-effort fsyncs the directory).
/// Rename is atomic on POSIX filesystems, and the alternating temp names
/// mean a crash at *any* instruction leaves either the previous valid
/// snapshot at the target path or nothing there at all — never a torn
/// file that a resume could misread (the CRC framing would reject a torn
/// file anyway; this sink makes sure one is never observed).
pub struct FileCheckpointSink {
    path: PathBuf,
    /// Run identity captured at start; `note_degrade` appends to it so
    /// later snapshots carry the full degradation history.
    meta: Mutex<SnapshotMeta>,
    saves: AtomicU64,
    metrics: Option<CheckpointMetrics>,
}

/// Cached registry handles for checkpoint durability accounting.
#[derive(Clone, Debug)]
pub struct CheckpointMetrics {
    saves: Counter,
    bytes: Counter,
    fsync_ns: Histogram,
}

impl CheckpointMetrics {
    /// Binds the checkpoint handles in `reg`.
    pub fn new(reg: &Registry) -> Self {
        CheckpointMetrics {
            saves: reg.counter(names::CHECKPOINT_SAVES_TOTAL),
            bytes: reg.counter(names::CHECKPOINT_BYTES_TOTAL),
            fsync_ns: reg.histogram(names::CHECKPOINT_FSYNC_NS),
        }
    }
}

impl FileCheckpointSink {
    pub fn new(path: impl Into<PathBuf>, meta: SnapshotMeta) -> Self {
        FileCheckpointSink {
            path: path.into(),
            meta: Mutex::new(meta),
            saves: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Attaches durability metrics: every completed save records its
    /// size and the latency of the durable portion (file fsync + rename
    /// + directory fsync) into the registry the handles came from.
    pub fn with_metrics(mut self, metrics: CheckpointMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The snapshot path this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed saves.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed) // Relaxed: diagnostic counter
    }

    fn io_err(&self, what: &str, e: std::io::Error) -> String {
        format!("{what} {}: {e}", self.path.display())
    }
}

impl CheckpointSink for FileCheckpointSink {
    fn save(&self, state: &CheckpointState) -> Result<u64, String> {
        let meta = self
            .meta
            .lock()
            .unwrap_or_else(|p| p.into_inner()) // flsa-check: allow(unwrap) — poison recovery, never panics
            .clone();
        let bytes = encode(&meta, state);
        // Relaxed: the counter only alternates temp names; saves are
        // already serialized by the solver's single drive loop.
        let n = self.saves.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .path
            .with_extension(if n.is_multiple_of(2) { "tmp0" } else { "tmp1" });
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| self.io_err("create temp for", e))?;
        f.write_all(&bytes)
            .map_err(|e| self.io_err("write temp for", e))?;
        // Time the durable portion — file fsync, publish rename, and
        // directory fsync — which is where checkpoint latency actually
        // lives (the encode + buffered write above is memory-speed).
        let fsync_start = std::time::Instant::now();
        f.sync_all().map_err(|e| self.io_err("write temp for", e))?;
        drop(f);
        fs::rename(&tmp, &self.path).map_err(|e| self.io_err("publish", e))?;
        // Durability of the rename itself: fsync the directory. Best
        // effort — some filesystems refuse directory handles.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        if let Some(m) = &self.metrics {
            m.fsync_ns.record(fsync_start.elapsed().as_nanos() as u64);
            m.saves.inc();
            m.bytes.add(bytes.len() as u64);
        }
        Ok(bytes.len() as u64)
    }

    fn note_degrade(&self, reason: &'static str, rung: u32, config: &FastLsaConfig) {
        let mut meta = self.meta.lock().unwrap_or_else(|p| p.into_inner()); // flsa-check: allow(unwrap) — poison recovery
        meta.degrades.push(DegradeNote {
            reason: reason.to_string(),
            rung,
            k: config.k,
            base_cells: config.base_cells,
            threads: config.threads(),
        });
    }
}

/// In-memory sink for tests: keeps every encoded snapshot.
#[derive(Default)]
pub struct MemorySink {
    meta: Mutex<Option<SnapshotMeta>>,
    snapshots: Mutex<Vec<Vec<u8>>>,
}

impl MemorySink {
    pub fn new(meta: SnapshotMeta) -> Self {
        MemorySink {
            meta: Mutex::new(Some(meta)),
            snapshots: Mutex::new(Vec::new()),
        }
    }

    /// All snapshots saved so far, oldest first.
    pub fn snapshots(&self) -> Vec<Vec<u8>> {
        self.snapshots
            .lock()
            .unwrap_or_else(|p| p.into_inner()) // flsa-check: allow(unwrap) — poison recovery
            .clone()
    }

    /// The most recent snapshot, if any.
    pub fn last(&self) -> Option<Vec<u8>> {
        self.snapshots().pop()
    }
}

impl CheckpointSink for MemorySink {
    fn save(&self, state: &CheckpointState) -> Result<u64, String> {
        let meta = self
            .meta
            .lock()
            .unwrap_or_else(|p| p.into_inner()) // flsa-check: allow(unwrap) — poison recovery
            .clone()
            .ok_or_else(|| "MemorySink has no meta".to_string())?;
        let bytes = encode(&meta, state);
        let len = bytes.len() as u64;
        self.snapshots
            .lock()
            .unwrap_or_else(|p| p.into_inner()) // flsa-check: allow(unwrap) — poison recovery
            .push(bytes);
        Ok(len)
    }

    fn note_degrade(&self, reason: &'static str, rung: u32, config: &FastLsaConfig) {
        let mut meta = self.meta.lock().unwrap_or_else(|p| p.into_inner()); // flsa-check: allow(unwrap) — poison recovery
        if let Some(meta) = meta.as_mut() {
            meta.degrades.push(DegradeNote {
                reason: reason.to_string(),
                rung,
                k: config.k,
                base_cells: config.base_cells,
                threads: config.threads(),
            });
        }
    }
}
