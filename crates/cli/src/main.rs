//! `flsa` — command-line front end for the FastLSA alignment library.
//!
//! ```text
//! flsa align [options] A.fasta B.fasta     align two sequences
//! flsa gen   [options]                     generate a synthetic homologous pair
//! flsa info                                list matrices and the workload suite
//! ```
//!
//! Run `flsa help` for the full option list.
#![forbid(unsafe_code)]

mod args;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastlsa_core::{
    AlignError, AlignOptions, CancelToken, CheckpointPolicy, FastLsaConfig, ParallelConfig,
};
use flsa_checkpoint::{
    read_snapshot, resume_from_snapshot, CheckpointMetrics, FileCheckpointSink, SnapshotMeta,
};
use flsa_dp::{Alignment, Kernel, KernelBackend, Metrics};
use flsa_metrics::{MetricsSnapshot, Registry};
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::{fasta, generate, Alphabet, Sequence};
use flsa_trace::Recorder;

const HELP: &str = "\
flsa - FastLSA sequence alignment (Driga et al., ICPP 2003)

USAGE:
    flsa align [options] A.fasta [B.fasta]
    flsa batch [options] PAIRS.fasta [B.fasta]  align many pairs at once on the
                                            inter-sequence batch kernel
    flsa resume [options] CKPT              continue an interrupted checkpointed run
    flsa msa   [options] FAMILY.fasta       center-star multiple alignment
    flsa serve [options]                    alignment daemon (TCP, crash-safe)
    flsa report [TRACE] [--metrics FILE]    analyze a trace and/or metrics export
    flsa bench kernels [options]            DP kernel backend throughput sweep
    flsa bench metrics [options]            metrics-layer overhead bench + gate
    flsa bench serve [options]              seeded load harness for the daemon
    flsa bench shard [options]              sharded-execution bench + chaos gate
    flsa gen   [options]
    flsa info
    flsa help

ALIGN OPTIONS:
    --algo ALGO        fastlsa (default) | nw | nw-packed | hirschberg | sw
                       | banded | gotoh | mm-affine | fastlsa-affine | fit | overlap
    --matrix NAME      dna (default) | blosum62 | pam250 | identity | paper
    --matrix-file F    load an NCBI-format matrix file instead
    --gap N            linear gap penalty (default -10)
    --gap-open N       affine gap open (gotoh/mm-affine/fastlsa-affine;
                       default -10)
    --gap-extend N     affine gap extend (gotoh/mm-affine/fastlsa-affine;
                       default -2)
    --band W           band half-width for --algo banded (default 32)
    -k, --k N          FastLSA grid division factor (default 8)
    --base-cells N     FastLSA base-case buffer, DPM entries (default 1Mi)
    --memory BYTES     derive k/base-cells from a memory budget instead;
                       also enforced at runtime: allocations beyond the
                       budget walk the degradation ladder (smaller
                       base-case buffer, then smaller k)
    --deadline-ms N    cancel the alignment after N milliseconds
    --threads P        parallel FastLSA with P threads (default 1)
    --tiles F          tiles per grid block per dimension (default auto)
    --shards N         (fastlsa only) multi-process execution: a
                       coordinator farms grid-block tasks out to N
                       `flsa shard-worker` processes over CRC-framed
                       pipes, with per-task deadlines, heartbeats,
                       reassignment, and worker quarantine; the output
                       is byte-identical to the sequential run under
                       any worker failure mix. Exclusive with
                       --threads, --checkpoint, --matrix-file,
                       --memory, --deadline-ms, and --kernel.
    --shard-fault S    per-slot worker fault specs for chaos runs,
                       semicolon-separated (`kill:N`, `hang:N`,
                       `corrupt:N`, `slow:MS`; empty slot = clean)
    --kernel K         DP kernel backend: auto (default) | scalar
                       | sse4.1 | avx2 | avx512. Every backend is
                       bit-identical; unavailable backends are rejected.
                       Applies to fastlsa, nw, and hirschberg.
    --stats            print cells/memory/time metrics
    --json             print score and metrics as one JSON object instead
    --trace FILE       record an execution trace (spans, wavefront tiles,
                       kernels) to FILE; analyze with `flsa report FILE`
                       or load in Perfetto / chrome://tracing
    --trace-format F   chrome (default) | jsonl
    --checkpoint FILE  (fastlsa only) write a crash-safe snapshot of the
                       recursion state to FILE, atomically, as the run
                       progresses; after a crash or kill, `flsa resume
                       FILE` continues from the last snapshot. The file
                       is removed when the run completes.
    --checkpoint-every-blocks N
                       snapshot cadence in completed grid blocks
                       (default 64)
    --metrics FILE     export the run's metrics registry (counters,
                       gauges, latency histograms) to FILE on exit —
                       JSON when FILE ends in .json, Prometheus text
                       format otherwise. With --checkpoint the file is
                       also refreshed periodically during the run, so a
                       killed run leaves a snapshot `flsa resume` folds
                       into its own totals.
    --progress         live status line on stderr (percent done,
                       cells/sec, ETA, engine phase, kernel backend),
                       refreshed at a bounded ~5 Hz
    --quiet            suppress the alignment rendering
    --width N          alignment rendering width (default 60)

BATCH OPTIONS:
    flsa batch aligns many independent pairs in one call: small pairs
    ride the striped inter-sequence batch kernel (8 or 16 pairs per
    SIMD dispatch, one pair per i16 lane), with a bit-identical exact
    fallback for lanes that could saturate. One FASTA pairs
    consecutive records (1&2, 3&4, ...); two FASTA files pair record
    i of the first with record i of the second. Output is one
    tab-separated `id_a id_b score cigar` line per pair.
    --matrix NAME      dna (default) | blosum62 | pam250 | identity | paper
    --gap N            linear gap penalty (default -10)
    --kernel K         as for align: auto (default) | scalar | sse4.1
                       | avx2 | avx512
    --json             print one JSON array instead of the table
    --stats            print pair count, backend, cells, memory, time

RESUME OPTIONS (plus --stats/--json/--quiet/--trace/--metrics/
                --progress as for align):
    flsa resume CKPT   validates the snapshot (CRC-framed; scheme and
                       sequence digests must match) and continues the
                       run to completion, checkpointing at the same
                       cadence. A corrupt or mismatched snapshot exits
                       with code 3 and touches nothing. With --metrics
                       FILE, an existing export at FILE (from the killed
                       run) is folded in so the final export covers the
                       whole logical alignment.

SERVE OPTIONS:
    --addr A:P         listen address (default 127.0.0.1:7878; port 0
                       picks a free port, printed as `listening on ...`)
    --workers N        worker threads executing jobs (default 2)
    --queue-cap N      bounded admission queue; a full queue answers
                       Overloaded with a retry-after hint (default 64)
    --memory BYTES     server-wide admission budget: jobs that can never
                       fit get a typed TooLarge, jobs that do not fit
                       right now wait their turn (default unbudgeted)
    --retries N        retry attempts after a contained worker panic
                       (default 2)
    --deadline-ms N    default deadline for requests that carry none
                       (default 0 = none)
    --spool DIR        crash-safe spool: large jobs are journaled and
                       checkpointed under DIR, so a SIGKILL'd daemon
                       finishes them byte-identically after restart
    --spool-min-cells N
                       jobs with m*n cells at or above N are spooled
                       (default 250000)
    --spool-retain N   keep only the newest N completed results in the
                       spool; older job files are garbage-collected in
                       a crash-safe order (.done before .req), so a
                       restart mid-GC never orphans an accepted job
                       (default 256)
    --checkpoint-every-blocks N
                       checkpoint cadence for spooled jobs (default 4)
    --metrics FILE     export the serve registry (requests, retries,
                       panics, queue depth, latency histograms) to FILE
                       when the daemon drains
    --fault-seed N     inject the seeded ServeFaultPlan N (chaos/CI
                       only): panics, stalls, or tight deadlines on a
                       deterministic target job

    The daemon runs until SIGTERM/SIGINT (graceful drain: stop
    accepting, finish or checkpoint in-flight work, answer queued jobs
    with Draining) or a client Shutdown frame. Exit codes: 0 clean
    drain, 2 bind/config error, 3 unrecoverable spool corruption.

REPORT OPTIONS:
    flsa report accepts a trace file, or --metrics alone, or both.
    --metrics FILE     load a metrics export written by `flsa align
                       --metrics` or `flsa serve --metrics`. With a
                       trace, cross-check it: per-backend cell counts
                       must match the trace-derived totals exactly, and
                       the worker busy/idle split is folded into an
                       occupancy figure. Serve exports additionally get
                       a service section (outcome counts, retries and
                       contained panics, queue depth peak, request and
                       admission-wait latency quantiles).

BENCH OPTIONS (flsa bench metrics):
    --len N            square problem side for the end-to-end overhead
                       measurement (default 10000)
    --reps N           timed repetitions per configuration, best kept
                       (default 3)
    --threads P        worker threads for the parallel align (default 4,
                       capped at the host's parallelism)
    --gate F           fail (exit 1) if metrics-on overhead exceeds F
                       percent end-to-end
    -o, --out FILE     JSON report path (default BENCH_metrics.json)

BENCH OPTIONS (flsa bench serve):
    --mix M            read-heavy | rapid-grow (default: both)
    --mode M           closed | open (default: both)
    --clients N        concurrent client connections (default 4)
    --ops N            requests per client (default 32)
    --rate F           open-loop submission rate per client, req/s
                       (default 100)
    --seed N           workload seed (default 42; same seed, same jobs)
    --threads P        daemon worker threads (default 4, capped at the
                       host's parallelism)
    --memory BYTES     daemon admission budget (default unbudgeted)
    --gate F           fail (exit 1) unless every request was answered
                       and the slowest closed-loop cell sustains F req/s
    -o, --out FILE     JSON report path (default BENCH_serve.json)

BENCH OPTIONS (flsa bench shard):
    --len N            square problem side (default 600)
    --reps N           timed repetitions, best kept (default 3)
    --shards N         worker processes for the clean sharded run
                       (default 4)
    --ops N            chaos plans from the seeded matrix to run
                       (default 8)
    --seed N           base seed for the chaos plans (default 0)
    --gate MS          fail (exit 1) unless every run (clean and chaos)
                       is byte-identical to the sequential engine and
                       the slowest chaos run recovers end to end within
                       MS milliseconds
    -o, --out FILE     JSON report path (default BENCH_shard.json)

BENCH OPTIONS (flsa bench kernels):
    --len CSV          comma-separated square problem sides
                       (default 1024,4096,10000)
    --reps N           timed repetitions per case, best kept (default 3)
    --gate F           fail (exit 1) unless the best vectorized backend
                       reaches F x scalar cells/sec on the largest size
    -o, --out FILE     JSON report path (default BENCH_kernels.json)

GEN OPTIONS:
    --kind dna|protein (default dna)
    --len N            ancestor length (default 1000)
    --identity F       target identity 0..1 (default 0.85)
    --seed N           RNG seed (default 42)
    -o, --out FILE     output FASTA (default stdout)

EXIT CODES:
    0  success
    1  runtime fault (memory exhausted, deadline hit, worker panic, I/O)
    2  bad configuration or arguments
    3  malformed or unreadable input
";

/// A CLI failure: the message printed to stderr plus the process exit
/// code. The taxonomy (1 runtime fault, 2 bad config/args, 3 malformed
/// input) lets scripts distinguish "your command was wrong" from "your
/// data was wrong" from "the run itself failed".
struct CliError {
    code: u8,
    msg: String,
}

impl CliError {
    /// Exit 2: bad arguments, unknown names, invalid configuration.
    fn usage(msg: impl Into<String>) -> Self {
        Self {
            code: 2,
            msg: msg.into(),
        }
    }

    /// Exit 3: input files that are missing, unreadable, or malformed.
    fn input(msg: impl Into<String>) -> Self {
        Self {
            code: 3,
            msg: msg.into(),
        }
    }

    /// Exit 1: faults at run time — allocation exhaustion past the
    /// bottom of the degradation ladder, cancellation, worker panics,
    /// output I/O errors.
    fn runtime(msg: impl Into<String>) -> Self {
        Self {
            code: 1,
            msg: msg.into(),
        }
    }
}

impl From<AlignError> for CliError {
    fn from(e: AlignError) -> Self {
        match &e {
            AlignError::Config(_) => Self::usage(e.to_string()),
            AlignError::AlphabetMismatch { .. } => Self::input(e.to_string()),
            // A snapshot that fails validation is malformed input, like
            // a bad FASTA file — distinct from faults during the run.
            AlignError::CorruptCheckpoint { .. } => Self::input(e.to_string()),
            _ => Self::runtime(e.to_string()),
        }
    }
}

impl From<flsa_shard::ShardError> for CliError {
    fn from(e: flsa_shard::ShardError) -> Self {
        match e {
            flsa_shard::ShardError::Config { .. } => Self::usage(e.to_string()),
            flsa_shard::ShardError::Align(inner) => Self::from(inner),
            // NoWorkers / TaskFailed: the fleet failed at run time.
            _ => Self::runtime(e.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flsa: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let parsed = args::parse(argv).map_err(CliError::usage)?;
    if parsed.has_flag("help") {
        print!("{HELP}");
        return Ok(());
    }
    match parsed.command.as_str() {
        "align" => cmd_align(&parsed),
        "batch" => cmd_batch(&parsed),
        "resume" => cmd_resume(&parsed),
        "msa" => cmd_msa(&parsed),
        "serve" => cmd_serve(&parsed),
        "shard-worker" => cmd_shard_worker(&parsed),
        "report" => cmd_report(&parsed),
        "bench" => cmd_bench(&parsed),
        "gen" => cmd_gen(&parsed),
        "info" => cmd_info(),
        "" | "help" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command {other:?}; try `flsa help`"
        ))),
    }
}

fn scheme_for(name: &str, gap: i32) -> Result<ScoringScheme, String> {
    tables::scheme_by_name(name, gap).ok_or_else(|| format!("unknown matrix {name:?}"))
}

fn load_pair(paths: &[String], alphabet: &Alphabet) -> Result<(Sequence, Sequence), CliError> {
    match paths {
        [one] => {
            let recs =
                fasta::read_file(one, alphabet).map_err(|e| CliError::input(e.to_string()))?;
            let mut it = recs.into_iter();
            match (it.next(), it.next()) {
                (Some(sa), Some(sb)) => Ok((sa, sb)),
                (got, _) => Err(CliError::input(format!(
                    "{one} holds {} record(s); need two",
                    got.map_or(0, |_| 1)
                ))),
            }
        }
        [a, b] => {
            let ra = fasta::read_file(a, alphabet).map_err(|e| CliError::input(e.to_string()))?;
            let rb = fasta::read_file(b, alphabet).map_err(|e| CliError::input(e.to_string()))?;
            let sa = ra
                .into_iter()
                .next()
                .ok_or_else(|| CliError::input(format!("{a} is empty")))?;
            let sb = rb
                .into_iter()
                .next()
                .ok_or_else(|| CliError::input(format!("{b} is empty")))?;
            Ok((sa, sb))
        }
        _ => Err(CliError::usage(
            "align needs one FASTA with two records, or two FASTA files",
        )),
    }
}

/// Parses and validates `--kernel`: `None` means auto-select, `Some` is
/// a named backend the current CPU can actually run.
fn parse_kernel(a: &args::Args) -> Result<Option<KernelBackend>, CliError> {
    match a.str_or("kernel", "auto") {
        "auto" => Ok(None),
        name => {
            let b = KernelBackend::parse(name).ok_or_else(|| {
                CliError::usage(format!(
                    "unknown kernel backend {name:?} \
                     (expected auto, scalar, sse4.1, avx2, avx512)"
                ))
            })?;
            if !b.is_available() {
                return Err(CliError::usage(format!(
                    "kernel backend {name} is not available on this CPU \
                     (available: {})",
                    KernelBackend::available()
                        .iter()
                        .map(|b| b.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            Ok(Some(b))
        }
    }
}

/// A run's metrics registry, when `--metrics` or `--progress` asked for
/// one. `None` keeps the metrics-off path allocation-free.
fn registry_for(a: &args::Args) -> Option<Arc<Registry>> {
    (a.options.contains_key("metrics") || a.has_flag("progress")).then(|| Arc::new(Registry::new()))
}

/// Writes a registry snapshot to `path`, atomically (tmp + rename): JSON
/// when the path ends in `.json`, Prometheus text format otherwise.
fn write_metrics_file(path: &str, snap: &MetricsSnapshot) -> Result<(), String> {
    let body = if path.ends_with(".json") {
        snap.to_json()
    } else {
        snap.to_prometheus()
    };
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, body).map_err(|e| format!("{path}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{path}: {e}"))
}

/// The background observer behind `--progress` and the periodic metrics
/// refresh: one thread, woken every 200 ms, that repaints the status
/// line and (when checkpointing, so a killed run leaves something to
/// resume *and* to seed metrics from) rewrites the metrics export about
/// once a second.
struct LiveObserver {
    stop: std::sync::mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LiveObserver {
    /// Spawns the observer, or returns `None` when it would have nothing
    /// to do (no progress line, nothing to refresh) — a bare `--metrics`
    /// run pays only the final export.
    fn spawn(reg: &Arc<Registry>, progress: bool, refresh_path: Option<String>) -> Option<Self> {
        if !progress && refresh_path.is_none() {
            return None;
        }
        // The channel doubles as the stop signal: `finish` drops the
        // sender, turning the 200ms `recv_timeout` tick into an
        // immediate `Disconnected` — shutdown never waits out a sleep.
        let (stop, tick) = std::sync::mpsc::channel::<()>();
        let reg = Arc::clone(reg);
        let handle = std::thread::spawn(move || {
            let line = progress.then(|| flsa_metrics::progress::Progress::new(&reg));
            let start = Instant::now();
            let mut ticks = 0u64;
            loop {
                let disconnected = matches!(
                    tick.recv_timeout(Duration::from_millis(200)),
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
                );
                if disconnected {
                    break;
                }
                if let Some(p) = &line {
                    use std::io::Write as _;
                    eprint!("\r{}", p.line(start.elapsed().as_secs_f64()));
                    let _ = std::io::stderr().flush();
                }
                ticks += 1;
                if ticks.is_multiple_of(5) {
                    if let Some(path) = &refresh_path {
                        let _ = write_metrics_file(path, &reg.snapshot());
                    }
                }
            }
            if line.is_some() {
                eprintln!();
            }
        });
        Some(LiveObserver {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the refresh loop and waits for the final repaint.
    fn finish(mut self) {
        drop(self.stop);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }

    /// `finish` for an optional observer.
    fn finish_opt(live: Option<Self>) {
        if let Some(l) = live {
            l.finish();
        }
    }
}

/// Final `--metrics` export. Called after the run settles (success or
/// fault — a deadline-hit or exhausted run still leaves its numbers); a
/// write failure is only promoted to an error when the run itself
/// succeeded, so it never masks the run's own fault.
fn export_metrics(
    a: &args::Args,
    registry: Option<&Arc<Registry>>,
    run_failed: bool,
) -> Result<(), CliError> {
    let (Some(reg), Some(path)) = (registry, a.options.get("metrics")) else {
        return Ok(());
    };
    match write_metrics_file(path, &reg.snapshot()) {
        Ok(()) => Ok(()),
        Err(e) if run_failed => {
            eprintln!("flsa: warning: metrics export failed: {e}");
            Ok(())
        }
        Err(e) => Err(CliError::runtime(e)),
    }
}

fn cmd_align(a: &args::Args) -> Result<(), CliError> {
    let gap: i32 = a.get_or("gap", -10).map_err(CliError::usage)?;
    let scheme = if let Some(path) = a.options.get("matrix-file") {
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError::input(format!("{path}: {e}")))?;
        let matrix = flsa_scoring::parse_ncbi(path, &text)
            .map_err(|e| CliError::input(format!("{path}: {e}")))?;
        ScoringScheme::new(matrix, GapModel::linear(gap))
    } else {
        scheme_for(a.str_or("matrix", "dna"), gap).map_err(CliError::usage)?
    };
    let (sa, sb) = load_pair(&a.positional, scheme.alphabet())?;

    let algo = a.str_or("algo", "fastlsa");
    if a.options.contains_key("checkpoint") {
        if algo != "fastlsa" {
            return Err(CliError::usage(
                "--checkpoint is only supported for --algo fastlsa",
            ));
        }
        if a.options.contains_key("matrix-file") {
            return Err(CliError::usage(
                "--checkpoint needs a named --matrix (snapshots record the scheme by name \
                 so `flsa resume` can rebuild it)",
            ));
        }
    }
    if a.options.contains_key("shards") && algo != "fastlsa" {
        return Err(CliError::usage(
            "--shards is only supported for --algo fastlsa",
        ));
    }
    let threads: usize = a.get_or("threads", 1).map_err(CliError::usage)?;
    let kernel_choice = parse_kernel(a)?;
    let trace_format = a.str_or("trace-format", "chrome");
    if !matches!(trace_format, "chrome" | "jsonl") {
        return Err(CliError::usage(format!(
            "unknown trace format {trace_format:?} (expected chrome or jsonl)"
        )));
    }
    let recorder = a.options.get("trace").map(|_| Arc::new(Recorder::new()));
    let registry = registry_for(a);
    let mut metrics = match &recorder {
        Some(r) => Metrics::with_recorder(Arc::clone(r)),
        None => Metrics::new(),
    };
    if let Some(reg) = &registry {
        metrics = metrics.with_registry(reg);
    }
    let live = registry.as_ref().and_then(|reg| {
        // Refresh the export mid-run only when a checkpoint makes the
        // partial totals resumable; otherwise it is written once on exit.
        let refresh = a
            .options
            .contains_key("checkpoint")
            .then(|| a.options.get("metrics").cloned())
            .flatten();
        LiveObserver::spawn(reg, a.has_flag("progress"), refresh)
    });
    let start = Instant::now();

    let outcome = (|| -> Result<(i64, Option<flsa_dp::Path>), CliError> {
        Ok(match algo {
            "fastlsa" | "fastlsa-affine" => {
                let run_scheme = if algo == "fastlsa" {
                    scheme.clone()
                } else {
                    affine_scheme(a, &scheme)?
                };
                let shards: usize = a.get_or("shards", 0).map_err(CliError::usage)?;
                if shards > 0 {
                    return run_sharded(
                        a,
                        shards,
                        &sa,
                        &sb,
                        gap,
                        threads,
                        kernel_choice.is_some(),
                        &registry,
                        &metrics,
                    );
                }
                let mut budget_bytes = None;
                let mut cfg = if let Some(mem) = a.options.get("memory") {
                    let bytes: usize = mem
                        .parse()
                        .map_err(|_| CliError::usage(format!("invalid --memory value {mem:?}")))?;
                    budget_bytes = Some(bytes);
                    FastLsaConfig::for_memory(bytes, sa.len(), sb.len())
                } else {
                    FastLsaConfig::new(
                        a.get_or("k", 8).map_err(CliError::usage)?,
                        a.get_or("base-cells", 1usize << 20)
                            .map_err(CliError::usage)?,
                    )
                };
                if threads > 1 {
                    let tiles = a.get_or("tiles", 0usize).map_err(CliError::usage)?;
                    cfg = if tiles > 0 {
                        cfg.with_parallel(ParallelConfig {
                            threads,
                            tiles_per_block: tiles,
                        })
                    } else {
                        cfg.with_threads(threads)
                    };
                }
                let cancel = match a.options.get("deadline-ms") {
                    Some(ms) => {
                        let ms: u64 = ms.parse().map_err(|_| {
                            CliError::usage(format!("invalid --deadline-ms value {ms:?}"))
                        })?;
                        Some(CancelToken::with_deadline(Duration::from_millis(ms)))
                    }
                    None => None,
                };
                let checkpoint = match a.options.get("checkpoint") {
                    Some(ckpt_path) => {
                        let every: u64 = a
                            .get_or("checkpoint-every-blocks", 64)
                            .map_err(CliError::usage)?;
                        if every == 0 {
                            return Err(CliError::usage(
                                "--checkpoint-every-blocks must be at least 1",
                            ));
                        }
                        let meta = SnapshotMeta::for_run(
                            a.str_or("matrix", "dna"),
                            &scheme,
                            &sa,
                            &sb,
                            every,
                        );
                        let mut sink = FileCheckpointSink::new(ckpt_path.as_str(), meta);
                        if let Some(reg) = &registry {
                            sink = sink.with_metrics(CheckpointMetrics::new(reg));
                        }
                        Some(CheckpointPolicy::new(every, Arc::new(sink)))
                    }
                    None => None,
                };
                let opts = AlignOptions {
                    budget_bytes,
                    cancel,
                    checkpoint,
                    kernel: kernel_choice,
                    registry: registry.clone(),
                    ..AlignOptions::default()
                };
                let r = fastlsa_core::align_opts(&sa, &sb, &run_scheme, cfg, &opts, &metrics)?;
                // The job finished: the snapshot has served its purpose.
                if let Some(ckpt_path) = a.options.get("checkpoint") {
                    cleanup_checkpoint(ckpt_path);
                }
                (r.score, Some(r.path))
            }
            "nw" => {
                // The reference FM algorithm defaults to the scalar kernel;
                // an explicit --kernel switches the fill backend.
                let r = match kernel_choice {
                    Some(b) => {
                        let kernel = Kernel::try_new(b).expect("pre-validated backend");
                        flsa_fullmatrix::needleman_wunsch_kernel(
                            &sa, &sb, &scheme, &kernel, &metrics,
                        )
                    }
                    None => flsa_fullmatrix::needleman_wunsch(&sa, &sb, &scheme, &metrics),
                };
                (r.score, Some(r.path))
            }
            "nw-packed" => {
                let r = flsa_fullmatrix::needleman_wunsch_packed(&sa, &sb, &scheme, &metrics);
                (r.score, Some(r.path))
            }
            "hirschberg" => {
                let kernel = match kernel_choice {
                    Some(b) => Kernel::try_new(b).expect("pre-validated backend"),
                    None => Kernel::auto(),
                };
                let r = flsa_hirschberg::hirschberg_kernel(
                    &sa,
                    &sb,
                    &scheme,
                    flsa_hirschberg::HirschbergConfig::default(),
                    &kernel,
                    &metrics,
                );
                (r.score, Some(r.path))
            }
            "banded" => {
                let w: usize = a.get_or("band", 32).map_err(CliError::usage)?;
                let r = flsa_fullmatrix::banded_needleman_wunsch(&sa, &sb, &scheme, w, &metrics);
                (r.score, Some(r.path))
            }
            "gotoh" => {
                let r = flsa_fullmatrix::gotoh(&sa, &sb, &affine_scheme(a, &scheme)?, &metrics);
                (r.score, Some(r.path))
            }
            "mm-affine" => {
                let affine = affine_scheme(a, &scheme)?;
                let r = flsa_hirschberg::myers_miller_affine(&sa, &sb, &affine, &metrics);
                (r.score, Some(r.path))
            }
            "fit" => {
                let r = flsa_fullmatrix::semiglobal(
                    &sa,
                    &sb,
                    &scheme,
                    flsa_fullmatrix::EndsFree::FIT_A_IN_B,
                    &metrics,
                );
                (r.score, Some(r.path))
            }
            "overlap" => {
                let r = flsa_fullmatrix::semiglobal(
                    &sa,
                    &sb,
                    &scheme,
                    flsa_fullmatrix::EndsFree::OVERLAP_A_THEN_B,
                    &metrics,
                );
                (r.score, Some(r.path))
            }
            "sw" => {
                let r = flsa_fullmatrix::smith_waterman(&sa, &sb, &scheme, &metrics);
                println!(
                    "local score {} over {}[{:?}] x {}[{:?}]",
                    r.score,
                    sa.id(),
                    r.a_range(),
                    sb.id(),
                    r.b_range()
                );
                (r.score, None)
            }
            other => return Err(CliError::usage(format!("unknown algorithm {other:?}"))),
        })
    })();
    let elapsed = start.elapsed();
    LiveObserver::finish_opt(live);
    export_metrics(a, registry.as_ref(), outcome.is_err())?;
    let (score, path) = outcome?;
    report_run(
        a,
        algo,
        score,
        path.as_ref(),
        &sa,
        &sb,
        &scheme,
        elapsed,
        &metrics,
        recorder.as_ref(),
        threads,
        trace_format,
    )
}

/// `scheme`'s matrix with the `--gap-open`/`--gap-extend` affine gaps.
fn affine_scheme(a: &args::Args, scheme: &ScoringScheme) -> Result<ScoringScheme, CliError> {
    let open: i32 = a.get_or("gap-open", -10).map_err(CliError::usage)?;
    let extend: i32 = a.get_or("gap-extend", -2).map_err(CliError::usage)?;
    if open > 0 || extend > 0 {
        return Err(CliError::usage("--gap-open and --gap-extend must be <= 0"));
    }
    Ok(ScoringScheme::new(
        scheme.matrix().clone(),
        GapModel::affine(open, extend),
    ))
}

/// The `--shards` path of `flsa align --algo fastlsa`: a coordinator in
/// this process farms grid-block tasks out to worker processes — this
/// very binary re-invoked as `flsa shard-worker` — and the result flows
/// into the same reporting path as the sequential engine, because it is
/// byte-identical to it.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    a: &args::Args,
    shards: usize,
    sa: &Sequence,
    sb: &Sequence,
    gap: i32,
    threads: usize,
    explicit_kernel: bool,
    registry: &Option<Arc<Registry>>,
    metrics: &Metrics,
) -> Result<(i64, Option<flsa_dp::Path>), CliError> {
    for bad in ["checkpoint", "matrix-file", "memory", "deadline-ms"] {
        if a.options.contains_key(bad) {
            return Err(CliError::usage(format!(
                "--{bad} is not supported with --shards"
            )));
        }
    }
    if threads > 1 {
        return Err(CliError::usage(
            "--threads and --shards are exclusive: threads parallelize one \
             process, shards spread the run over worker processes",
        ));
    }
    if explicit_kernel {
        return Err(CliError::usage(
            "--kernel applies in-process; shard workers auto-select their backend",
        ));
    }
    let cfg = FastLsaConfig::new(
        a.get_or("k", 8).map_err(CliError::usage)?,
        a.get_or("base-cells", 1usize << 20)
            .map_err(CliError::usage)?,
    );
    let exe = std::env::current_exe()
        .map_err(|e| CliError::runtime(format!("cannot locate own binary: {e}")))?;
    let mut opts = flsa_shard::ShardOptions::new(
        shards,
        vec![
            exe.to_string_lossy().into_owned(),
            "shard-worker".to_string(),
        ],
    );
    if let Some(spec) = a.options.get("shard-fault") {
        opts.worker_faults = spec.split(';').map(str::to_string).collect();
    }
    opts.registry = registry.clone();
    let r = flsa_shard::align_sharded(sa, sb, a.str_or("matrix", "dna"), gap, cfg, &opts, metrics)?;
    Ok((r.score, Some(r.path)))
}

/// `flsa shard-worker`: the worker-process end of `--shards`, spoken to
/// over stdin/stdout with the `FLSASHD1` protocol. Never invoked by
/// hand; the coordinator spawns it and owns both pipes (stdout carries
/// protocol frames, so nothing may print there).
fn cmd_shard_worker(a: &args::Args) -> Result<(), CliError> {
    if !a.positional.is_empty() {
        return Err(CliError::usage(
            "shard-worker takes no positional arguments",
        ));
    }
    let mut opts = flsa_shard::WorkerOptions::default();
    opts.heartbeat_ms = a
        .get_or("heartbeat-ms", opts.heartbeat_ms)
        .map_err(CliError::usage)?;
    if let Some(spec) = a.options.get("fault") {
        opts.fault = flsa_shard::WorkerFault::parse(spec).map_err(CliError::usage)?;
    }
    // The worker's exit code is the protocol's, not the CLI taxonomy's:
    // exit straight from the loop so a Shutdown frame maps to 0.
    std::process::exit(flsa_shard::worker::run(&opts))
}

/// Prints a finished run in whichever form the flags ask for. Shared by
/// `align` and `resume` so a resumed run's output is byte-identical to
/// the uninterrupted run's.
#[allow(clippy::too_many_arguments)]
fn report_run(
    a: &args::Args,
    algo: &str,
    score: i64,
    path: Option<&flsa_dp::Path>,
    sa: &Sequence,
    sb: &Sequence,
    scheme: &ScoringScheme,
    elapsed: Duration,
    metrics: &Metrics,
    recorder: Option<&Arc<Recorder>>,
    threads: usize,
    trace_format: &str,
) -> Result<(), CliError> {
    let trace_events = match (a.options.get("trace"), recorder) {
        (Some(out), Some(r)) => {
            r.set_label(format!("{algo} {}x{}", sa.len(), sb.len()));
            r.set_threads(threads as u32);
            Some((
                out.as_str(),
                write_trace(out, trace_format, r).map_err(CliError::runtime)?,
            ))
        }
        _ => None,
    };

    if a.has_flag("json") {
        let s = metrics.snapshot();
        println!(
            "{{\"algo\":\"{algo}\",\"score\":{score},\"len_a\":{},\"len_b\":{},\
             \"threads\":{threads},\"time_ns\":{},\"cells_computed\":{},\
             \"cells_base_case\":{},\"traceback_steps\":{},\"kernel_calls\":{},\
             \"peak_bytes\":{},\"cell_factor\":{:.6}}}",
            sa.len(),
            sb.len(),
            elapsed.as_nanos(),
            s.cells_computed,
            s.cells_base_case,
            s.traceback_steps,
            s.kernel_calls,
            s.peak_bytes,
            s.cell_factor(sa.len(), sb.len())
        );
        return Ok(());
    }

    println!(
        "score {score}   ({} x {} residues, {algo})",
        sa.len(),
        sb.len()
    );
    if let Some(path) = path {
        if !a.has_flag("quiet") {
            let al = Alignment::from_path(sa, sb, path, scheme);
            println!("identity {:.1}%", al.identity() * 100.0);
            print!("{al}");
        }
    }
    if a.has_flag("stats") {
        let s = metrics.snapshot();
        println!("time            {:?}", elapsed);
        println!("cells computed  {}", s.cells_computed);
        println!("cell factor     {:.3}", s.cell_factor(sa.len(), sb.len()));
        println!("traceback steps {}", s.traceback_steps);
        println!("peak aux memory {} bytes", s.peak_bytes);
    }
    if let Some((out, events)) = trace_events {
        println!("trace           {events} events -> {out} ({trace_format})");
    }
    Ok(())
}

/// Removes a completed run's snapshot and any leftover temp buffers.
fn cleanup_checkpoint(path: &str) {
    let p = std::path::Path::new(path);
    std::fs::remove_file(p).ok();
    std::fs::remove_file(p.with_extension("tmp0")).ok();
    std::fs::remove_file(p.with_extension("tmp1")).ok();
}

/// `flsa resume CKPT`: validate a snapshot written by
/// `flsa align --checkpoint` and run the alignment to completion.
fn cmd_resume(a: &args::Args) -> Result<(), CliError> {
    let [ckpt_path] = &a.positional[..] else {
        return Err(CliError::usage(
            "resume needs exactly one checkpoint file (from `flsa align --checkpoint`)",
        ));
    };
    let snap = read_snapshot(std::path::Path::new(ckpt_path))
        .map_err(|e| CliError::input(e.to_string()))?;
    let scheme = scheme_for(&snap.meta.scheme_name, snap.meta.gap_penalty).map_err(|msg| {
        CliError::input(format!(
            "cannot rebuild the snapshot's scoring scheme: {msg}"
        ))
    })?;
    // `sequences` re-verifies the scheme digest and every residue code.
    let (sa, sb) = snap
        .sequences(&scheme)
        .map_err(|e| CliError::input(e.to_string()))?;

    let trace_format = a.str_or("trace-format", "chrome");
    if !matches!(trace_format, "chrome" | "jsonl") {
        return Err(CliError::usage(format!(
            "unknown trace format {trace_format:?} (expected chrome or jsonl)"
        )));
    }
    let recorder = a.options.get("trace").map(|_| Arc::new(Recorder::new()));
    let registry = registry_for(a);
    if let (Some(reg), Some(mpath)) = (&registry, a.options.get("metrics")) {
        // Fold in whatever the killed run managed to export (counters
        // add, gauges carry over) so the final export covers the whole
        // logical alignment, not just the resumed half.
        if let Ok(text) = std::fs::read_to_string(mpath) {
            match MetricsSnapshot::parse(&text) {
                Ok(prev) => reg.seed(&prev),
                Err(e) => {
                    eprintln!("flsa: warning: ignoring unparsable metrics file {mpath}: {e}")
                }
            }
        }
    }
    let mut metrics = match &recorder {
        Some(r) => Metrics::with_recorder(Arc::clone(r)),
        None => Metrics::new(),
    };
    if let Some(reg) = &registry {
        metrics = metrics.with_registry(reg);
    }
    let threads = snap.state.config.threads();

    // Keep checkpointing to the same file at the recorded cadence, with
    // the degrade history carried over, so a resumed run is just as
    // killable as the original.
    let mut sink = FileCheckpointSink::new(ckpt_path.as_str(), snap.meta.clone());
    if let Some(reg) = &registry {
        sink = sink.with_metrics(CheckpointMetrics::new(reg));
    }
    let opts = AlignOptions {
        checkpoint: Some(CheckpointPolicy::new(
            snap.meta.every_blocks,
            Arc::new(sink),
        )),
        registry: registry.clone(),
        ..AlignOptions::default()
    };
    let live = registry.as_ref().and_then(|reg| {
        LiveObserver::spawn(
            reg,
            a.has_flag("progress"),
            a.options.get("metrics").cloned(),
        )
    });
    let start = Instant::now();
    let outcome = resume_from_snapshot(&snap, &scheme, &opts, &metrics).map_err(CliError::from);
    let elapsed = start.elapsed();
    LiveObserver::finish_opt(live);
    export_metrics(a, registry.as_ref(), outcome.is_err())?;
    let r = outcome?;
    cleanup_checkpoint(ckpt_path);
    report_run(
        a,
        "fastlsa",
        r.score,
        Some(&r.path),
        &sa,
        &sb,
        &scheme,
        elapsed,
        &metrics,
        recorder.as_ref(),
        threads,
        trace_format,
    )
}

/// Snapshots `recorder` and writes it to `path` in `format`, returning the
/// event count.
fn write_trace(path: &str, format: &str, recorder: &Recorder) -> Result<usize, String> {
    use std::io::Write as _;
    let trace = recorder.snapshot();
    let events = trace.events.len();
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    match format {
        "jsonl" => flsa_trace::write_jsonl(&trace, &mut w),
        _ => flsa_trace::write_chrome(&trace, &mut w),
    }
    .and_then(|()| w.flush())
    .map_err(|e| format!("{path}: {e}"))?;
    Ok(events)
}

/// `flsa report [TRACE] [--metrics FILE]`: reads a trace (either export
/// format) and prints the utilization / pipeline-phase / recursion
/// analysis; a metrics export is cross-checked against the trace, or
/// summarized on its own when no trace is given (the `flsa serve
/// --metrics` workflow has no trace to pair with).
fn cmd_report(a: &args::Args) -> Result<(), CliError> {
    let metrics = match a.options.get("metrics") {
        Some(mpath) => {
            let mtext = std::fs::read_to_string(mpath)
                .map_err(|e| CliError::input(format!("{mpath}: {e}")))?;
            let snap = MetricsSnapshot::parse(&mtext)
                .map_err(|e| CliError::input(format!("{mpath}: {e}")))?;
            Some((mpath.as_str(), snap))
        }
        None => None,
    };
    match (&a.positional[..], &metrics) {
        ([path], _) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::input(format!("{path}: {e}")))?;
            let trace = flsa_trace::read_trace(&text)
                .map_err(|e| CliError::input(format!("{path}: {e}")))?;
            let analysis = flsa_trace::analyze(&trace);
            print!("{}", flsa_trace::render_report(&analysis));
            if let Some((mpath, snap)) = &metrics {
                print!("{}", render_metrics_crosscheck(mpath, snap, &analysis));
                print!("{}", render_serve_metrics(snap));
            }
            Ok(())
        }
        ([], Some((mpath, snap))) => {
            println!("metrics report ({mpath}):");
            let serve = render_serve_metrics(snap);
            if serve.is_empty() {
                // Not a serve export: show the engine-side totals that
                // make sense without a trace to cross-check against.
                use flsa_metrics::names;
                println!(
                    "  kernel cells    {}",
                    snap.counter(names::CELLS_TOTAL).unwrap_or(0)
                );
                println!(
                    "  kernel calls    {}",
                    snap.counter(names::KERNEL_CALLS_TOTAL).unwrap_or(0)
                );
            } else {
                print!("{serve}");
            }
            Ok(())
        }
        _ => Err(CliError::usage(
            "report needs a trace file (from `flsa align --trace`), \
             a --metrics export, or both",
        )),
    }
}

/// The service section of `flsa report --metrics`: rendered only when
/// the export came from a daemon (any `flsa_serve_*` series present).
fn render_serve_metrics(snap: &MetricsSnapshot) -> String {
    use flsa_metrics::names;
    use std::fmt::Write as _;
    let c = |name| snap.counter(name).unwrap_or(0);
    if c(names::SERVE_REQUESTS_TOTAL) == 0 && c(names::SERVE_CONNECTIONS_TOTAL) == 0 {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "\nserve:");
    let _ = writeln!(
        out,
        "  requests        {} over {} connections",
        c(names::SERVE_REQUESTS_TOTAL),
        c(names::SERVE_CONNECTIONS_TOTAL)
    );
    let _ = writeln!(
        out,
        "  outcomes        {} ok, {} failed, {} overloaded ({} deadline-expired)",
        c(names::SERVE_COMPLETED_TOTAL),
        c(names::SERVE_FAILED_TOTAL),
        c(names::SERVE_REJECTED_TOTAL),
        c(names::SERVE_DEADLINE_EXPIRED_TOTAL)
    );
    let _ = writeln!(
        out,
        "  faults          {} contained panics, {} retries, {} protocol errors",
        c(names::SERVE_PANICS_TOTAL),
        c(names::SERVE_RETRIES_TOTAL),
        c(names::SERVE_PROTOCOL_ERRORS_TOTAL)
    );
    let _ = writeln!(
        out,
        "  crash safety    {} spooled, {} recovered after restart",
        c(names::SERVE_SPOOLED_TOTAL),
        c(names::SERVE_RECOVERED_TOTAL)
    );
    let _ = writeln!(
        out,
        "  queue           depth peak {}, inflight now {}",
        snap.gauge(names::SERVE_QUEUE_DEPTH_PEAK).unwrap_or(0),
        snap.gauge(names::SERVE_INFLIGHT).unwrap_or(0)
    );
    for (label, name) in [
        ("request latency", names::SERVE_REQUEST_NS),
        ("admission wait", names::SERVE_ADMIT_WAIT_NS),
    ] {
        if let Some(h) = snap.histogram(name).filter(|h| h.count > 0) {
            let _ = writeln!(
                out,
                "  {label:<15} p50 {} p99 {} over {} samples",
                fmt_dur_ns(h.quantile(0.5)),
                fmt_dur_ns(h.quantile(0.99)),
                h.count
            );
        }
    }
    out
}

fn fmt_dur_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// The `flsa report --metrics` section: the same run seen through two
/// independent instruments — the event trace and the metrics registry —
/// must tell the same story. Per-backend cell counts are compared
/// exactly (the DP layer keeps both attributions in lockstep by
/// construction); the wavefront busy/idle totals, which only the
/// registry has, are folded into a computed occupancy figure.
fn render_metrics_crosscheck(
    mpath: &str,
    snap: &MetricsSnapshot,
    a: &flsa_trace::Analysis,
) -> String {
    use flsa_metrics::names;
    use std::fmt::Write as _;
    let verdict = |ok: bool| if ok { "MATCH" } else { "MISMATCH" };
    let mut out = String::new();
    let _ = writeln!(out, "\nmetrics cross-check ({mpath}):");
    let cells = snap.counter(names::CELLS_TOTAL).unwrap_or(0);
    let _ = writeln!(
        out,
        "  kernel cells    metrics {:>16}   trace {:>16}   {}",
        cells,
        a.kernel_cells,
        verdict(cells == a.kernel_cells)
    );
    let calls = snap.counter(names::KERNEL_CALLS_TOTAL).unwrap_or(0);
    let _ = writeln!(
        out,
        "  kernel calls    metrics {:>16}   trace {:>16}   {}",
        calls,
        a.kernel_events,
        verdict(calls == a.kernel_events as u64)
    );
    for b in names::BACKENDS {
        let m = snap.counter(names::cells_for_backend(b)).unwrap_or(0);
        let t = a
            .kernel_backends
            .iter()
            .find(|s| s.backend == *b)
            .map_or(0, |s| s.cells);
        if m == 0 && t == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "    cells[{:<6}] metrics {:>16}   trace {:>16}   {}",
            b,
            m,
            t,
            verdict(m == t)
        );
    }
    let busy = snap.counter(names::WORKER_BUSY_NS_TOTAL).unwrap_or(0);
    let idle = snap.counter(names::WORKER_IDLE_NS_TOTAL).unwrap_or(0);
    if busy + idle > 0 {
        let occupancy = busy as f64 / (busy + idle) as f64 * 100.0;
        let _ = writeln!(
            out,
            "  worker occupancy {occupancy:.1}%  (busy {} / idle {}; {} parks, {} tiles, inflight peak {})",
            fmt_dur_ns(busy),
            fmt_dur_ns(idle),
            snap.counter(names::WORKER_PARKS_TOTAL).unwrap_or(0),
            snap.counter(names::TILES_TOTAL).unwrap_or(0),
            snap.gauge(names::TILES_INFLIGHT_PEAK).unwrap_or(0)
        );
    }
    if let Some(saves) = snap
        .counter(names::CHECKPOINT_SAVES_TOTAL)
        .filter(|&s| s > 0)
    {
        let fsync = snap.histogram(names::CHECKPOINT_FSYNC_NS);
        let _ = writeln!(
            out,
            "  checkpoints     {} saves, {} bytes, fsync p50 {} p99 {}",
            saves,
            snap.counter(names::CHECKPOINT_BYTES_TOTAL).unwrap_or(0),
            fsync.map_or("-".to_string(), |h| fmt_dur_ns(h.quantile(0.5))),
            fsync.map_or("-".to_string(), |h| fmt_dur_ns(h.quantile(0.99)))
        );
    }
    out
}

/// `flsa batch`: aligns many pairs in one call through
/// [`fastlsa_core::align_batch`], which runs them on the striped
/// inter-sequence batch kernel (8/16 pairs per SIMD dispatch) with a
/// bit-identical single-pair fallback. One FASTA pairs consecutive
/// records (1&2, 3&4, ...); two FASTA files pair record `i` of the
/// first with record `i` of the second.
fn cmd_batch(a: &args::Args) -> Result<(), CliError> {
    let gap: i32 = a.get_or("gap", -10).map_err(CliError::usage)?;
    let scheme = scheme_for(a.str_or("matrix", "dna"), gap).map_err(CliError::usage)?;
    let kernel = parse_kernel(a)?;

    let seqs: Vec<Sequence> = match &a.positional[..] {
        [one] => {
            let recs = fasta::read_file(one, scheme.alphabet())
                .map_err(|e| CliError::input(e.to_string()))?;
            if recs.len() < 2 || recs.len() % 2 != 0 {
                return Err(CliError::input(format!(
                    "{one} holds {} record(s); batch needs an even number (consecutive \
                     records are paired)",
                    recs.len()
                )));
            }
            recs
        }
        [qa, qb] => {
            let ra = fasta::read_file(qa, scheme.alphabet())
                .map_err(|e| CliError::input(e.to_string()))?;
            let rb = fasta::read_file(qb, scheme.alphabet())
                .map_err(|e| CliError::input(e.to_string()))?;
            if ra.len() != rb.len() || ra.is_empty() {
                return Err(CliError::input(format!(
                    "{qa} holds {} record(s) but {qb} holds {}; batch pairs them one-to-one",
                    ra.len(),
                    rb.len()
                )));
            }
            // Interleave so the "consecutive records" pairing below
            // covers both input shapes with one code path.
            ra.into_iter().zip(rb).flat_map(|(x, y)| [x, y]).collect()
        }
        _ => {
            return Err(CliError::usage(
                "batch needs one FASTA with an even number of records, or two FASTA \
                 files with matching record counts",
            ))
        }
    };
    let pairs: Vec<(&Sequence, &Sequence)> = seqs.chunks_exact(2).map(|c| (&c[0], &c[1])).collect();

    let opts = AlignOptions {
        kernel,
        ..AlignOptions::default()
    };
    let metrics = Metrics::new();
    let start = Instant::now();
    let results = fastlsa_core::align_batch(&pairs, &scheme, &opts, &metrics)?;
    let elapsed = start.elapsed();

    if a.has_flag("json") {
        let mut out = String::from("[");
        for (i, ((sa, sb), r)) in pairs.iter().zip(&results).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"a\":\"{}\",\"b\":\"{}\",\"score\":{},\"cigar\":\"{}\"}}",
                sa.id(),
                sb.id(),
                r.score,
                flsa_serve::job::cigar(&r.path)
            ));
        }
        out.push(']');
        println!("{out}");
    } else {
        for ((sa, sb), r) in pairs.iter().zip(&results) {
            println!(
                "{}\t{}\t{}\t{}",
                sa.id(),
                sb.id(),
                r.score,
                flsa_serve::job::cigar(&r.path)
            );
        }
    }
    if a.has_flag("stats") {
        let s = metrics.snapshot();
        let backend = kernel.unwrap_or_else(KernelBackend::detect_best);
        println!("pairs           {}", pairs.len());
        println!("kernel backend  {}", backend.name());
        println!("time            {elapsed:?}");
        println!("cells computed  {}", s.cells_computed);
        println!("peak aux memory {} bytes", s.peak_bytes);
    }
    Ok(())
}

fn cmd_msa(a: &args::Args) -> Result<(), CliError> {
    let gap: i32 = a.get_or("gap", -10).map_err(CliError::usage)?;
    let scheme = scheme_for(a.str_or("matrix", "dna"), gap).map_err(CliError::usage)?;
    let [path] = &a.positional[..] else {
        return Err(CliError::usage(
            "msa needs exactly one FASTA file with the family",
        ));
    };
    let seqs =
        fasta::read_file(path, scheme.alphabet()).map_err(|e| CliError::input(e.to_string()))?;
    let cfg = FastLsaConfig::new(
        a.get_or("k", 8).map_err(CliError::usage)?,
        a.get_or("base-cells", 1usize << 20)
            .map_err(CliError::usage)?,
    );
    let metrics = Metrics::new();
    let start = Instant::now();
    let result = flsa_msa::center_star(&seqs, &scheme, cfg, &metrics).map_err(|e| match e {
        flsa_msa::MsaError::Align(inner) => CliError::from(inner),
        other => CliError::input(other.to_string()),
    })?;
    let elapsed = start.elapsed();
    println!(
        "{} sequences, {} columns, center {}, conservation {:.1}%, sum-of-pairs {}",
        result.msa.num_rows(),
        result.msa.num_cols(),
        seqs[result.center].id(),
        result.msa.conservation() * 100.0,
        result.msa.sum_of_pairs(&scheme)
    );
    if !a.has_flag("quiet") {
        print!("{}", result.msa);
    }
    if a.has_flag("stats") {
        let s = metrics.snapshot();
        println!("time            {elapsed:?}");
        println!("cells computed  {}", s.cells_computed);
        println!("peak aux memory {} bytes", s.peak_bytes);
    }
    Ok(())
}

/// Adapts a seeded [`flsa_fault::serve::ServeFaultPlan`] to the daemon's
/// [`flsa_serve::JobHooks`], so CI's chaos job can fault-inject a *real*
/// daemon process the same way the in-process chaos harness does. The
/// target job is addressed by server sequence number: a fresh daemon
/// numbers jobs from 1 in submission order, so submitted job `i` is
/// seq `i + 1`.
struct FaultSeedHooks {
    plan: flsa_fault::serve::ServeFaultPlan,
    target_seq: u64,
}

impl flsa_serve::JobHooks for FaultSeedHooks {
    fn on_attempt(&self, seq: u64, attempt: u32) {
        use flsa_fault::serve::ServeFaultKind;
        match self.plan.kind {
            ServeFaultKind::WorkerPanic => {
                if seq == self.target_seq && attempt <= self.plan.panic_attempts {
                    panic!(
                        "fault-seed {}: injected worker panic (attempt {attempt})",
                        self.plan.seed
                    );
                }
            }
            ServeFaultKind::SlowJob => {
                if seq == self.target_seq {
                    std::thread::sleep(Duration::from_millis(self.plan.slow_ms));
                }
            }
            ServeFaultKind::DeadlineExpiry => {
                std::thread::sleep(Duration::from_millis(self.plan.slow_ms));
            }
            ServeFaultKind::BudgetSqueeze => {}
        }
    }
}

/// `flsa serve`: run the alignment daemon until SIGTERM/SIGINT or a
/// client `Shutdown` frame, then drain gracefully and exit 0.
fn cmd_serve(a: &args::Args) -> Result<(), CliError> {
    if !a.positional.is_empty() {
        return Err(CliError::usage("serve takes no positional arguments"));
    }
    let registry = registry_for(a);
    let mut cfg = flsa_serve::ServeConfig::new(a.str_or("addr", "127.0.0.1:7878"));
    cfg.workers = a.get_or("workers", cfg.workers).map_err(CliError::usage)?;
    cfg.queue_cap = a
        .get_or("queue-cap", cfg.queue_cap)
        .map_err(CliError::usage)?;
    cfg.max_retries = a
        .get_or("retries", cfg.max_retries)
        .map_err(CliError::usage)?;
    cfg.default_deadline_ms = a
        .get_or("deadline-ms", cfg.default_deadline_ms)
        .map_err(CliError::usage)?;
    cfg.spool_min_cells = a
        .get_or("spool-min-cells", cfg.spool_min_cells)
        .map_err(CliError::usage)?;
    cfg.spool_retain_done = a
        .get_or("spool-retain", cfg.spool_retain_done)
        .map_err(CliError::usage)?;
    cfg.checkpoint_every_blocks = a
        .get_or("checkpoint-every-blocks", cfg.checkpoint_every_blocks)
        .map_err(CliError::usage)?;
    if let Some(mem) = a.options.get("memory") {
        let bytes: usize = mem
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --memory value {mem:?}")))?;
        cfg.budget_bytes = Some(bytes);
    }
    if let Some(dir) = a.options.get("spool") {
        cfg.spool_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(seed) = a.options.get("fault-seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --fault-seed value {seed:?}")))?;
        let plan = flsa_fault::serve::ServeFaultPlan::from_seed(seed);
        // BudgetSqueeze plans carry the squeeze; an explicit --memory
        // still wins so operators can reproduce with their own budget.
        if cfg.budget_bytes.is_none() {
            cfg.budget_bytes = plan.budget_bytes;
        }
        eprintln!(
            "flsa: fault injection active: seed {seed}, class {}, target job {}",
            plan.kind.name(),
            plan.target_job
        );
        cfg.hooks = Some(Arc::new(FaultSeedHooks {
            target_seq: plan.target_job + 1,
            plan,
        }));
    }
    cfg.registry = registry.clone();

    flsa_serve::signal::install();
    let server = flsa_serve::Server::start(cfg).map_err(|e| match &e {
        flsa_serve::ServeError::Bind { .. } | flsa_serve::ServeError::Config { .. } => {
            CliError::usage(e.to_string())
        }
        flsa_serve::ServeError::SpoolCorrupt { .. } => CliError::input(e.to_string()),
        flsa_serve::ServeError::SpoolIo { .. } => CliError::runtime(e.to_string()),
    })?;
    // Scripts (and the integration tests) read this line to learn the
    // bound port; stdout is line-buffered, so it is visible immediately.
    println!("listening on {}", server.local_addr());

    while !(flsa_serve::signal::drain_requested() || server.drain_requested()) {
        std::thread::sleep(Duration::from_millis(25));
    }
    server.drain();
    let summary = server.join();
    println!(
        "drained: {} completed, {} failed, {} overloaded, {} drained, {} spooled pending",
        summary.completed,
        summary.failed,
        summary.rejected,
        summary.drained,
        summary.spooled_pending
    );
    export_metrics(a, registry.as_ref(), false)
}

/// `flsa bench serve`: the seeded load harness — an in-process daemon
/// driven by multi-threaded clients over both workload mixes and both
/// pacing disciplines, with latency percentiles and a throughput gate.
fn cmd_bench_serve(a: &args::Args) -> Result<(), CliError> {
    use flsa_bench::serve::{LoadConfig, Mix, Mode};
    let mut cfg = LoadConfig::default();
    if let Some(m) = a.options.get("mix") {
        cfg.mixes = vec![Mix::parse(m).ok_or_else(|| {
            CliError::usage(format!(
                "unknown mix {m:?} (expected read-heavy or rapid-grow)"
            ))
        })?];
    }
    if let Some(m) = a.options.get("mode") {
        cfg.modes = vec![Mode::parse(m).ok_or_else(|| {
            CliError::usage(format!("unknown mode {m:?} (expected closed or open)"))
        })?];
    }
    cfg.clients = a.get_or("clients", cfg.clients).map_err(CliError::usage)?;
    cfg.ops = a.get_or("ops", cfg.ops).map_err(CliError::usage)?;
    cfg.rate = a.get_or("rate", cfg.rate).map_err(CliError::usage)?;
    cfg.seed = a.get_or("seed", cfg.seed).map_err(CliError::usage)?;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    cfg.workers = a
        .get_or("threads", cfg.workers.min(host))
        .map_err(CliError::usage)?;
    if let Some(mem) = a.options.get("memory") {
        let bytes: usize = mem
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --memory value {mem:?}")))?;
        cfg.budget_bytes = Some(bytes);
    }
    if cfg.clients == 0 || cfg.ops == 0 || cfg.workers == 0 {
        return Err(CliError::usage(
            "--clients, --ops, and --threads must be at least 1",
        ));
    }
    if !cfg.rate.is_finite() || cfg.rate <= 0.0 {
        return Err(CliError::usage("--rate must be positive"));
    }

    let report = flsa_bench::serve::run(&cfg);
    print!("{}", report.render());
    let out = a.str_or("out", "BENCH_serve.json");
    std::fs::write(out, report.to_json()).map_err(|e| CliError::runtime(format!("{out}: {e}")))?;
    println!("report          -> {out}");
    if let Some(gate) = a.options.get("gate") {
        let gate: f64 = gate
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --gate value {gate:?}")))?;
        if !report.all_answered() {
            return Err(CliError::runtime(
                "load harness lost responses: submitted != completed + failed + rejected",
            ));
        }
        let throughput = report.gate_throughput();
        if throughput.is_infinite() {
            return Err(CliError::usage(
                "--gate needs at least one closed-loop cell (open-loop throughput \
                 is capped by the submission schedule, not the server)",
            ));
        }
        println!("throughput gate {throughput:.1} req/s measured, {gate:.1} required");
        if throughput < gate {
            return Err(CliError::runtime(format!(
                "serve throughput regression: slowest closed-loop cell sustained \
                 only {throughput:.1} req/s (gate {gate:.1})"
            )));
        }
    }
    Ok(())
}

/// `flsa bench kernels`: sweeps every available DP kernel backend over a
/// set of square problem sizes, prints a throughput table, writes the
/// JSON report, and optionally gates on the SIMD-vs-scalar speedup.
fn cmd_bench(a: &args::Args) -> Result<(), CliError> {
    match a.positional.first().map(String::as_str) {
        Some("kernels") => cmd_bench_kernels(a),
        Some("metrics") => cmd_bench_metrics(a),
        Some("serve") => cmd_bench_serve(a),
        Some("shard") => cmd_bench_shard(a),
        other => Err(CliError::usage(format!(
            "unknown bench suite {other:?}; try `flsa bench kernels`, \
             `flsa bench metrics`, `flsa bench serve`, or `flsa bench shard`"
        ))),
    }
}

/// `flsa bench shard`: times the multi-process coordinator against the
/// sequential engine — a clean sharded run plus a slice of the seeded
/// chaos matrix — verifying byte-identity throughout, and optionally
/// gates on the worst-case chaos recovery overhead.
fn cmd_bench_shard(a: &args::Args) -> Result<(), CliError> {
    let mut cfg = flsa_bench::shard::ShardBenchConfig::default();
    cfg.len = a.get_or("len", cfg.len).map_err(CliError::usage)?;
    cfg.reps = a.get_or("reps", cfg.reps).map_err(CliError::usage)?;
    cfg.shards = a.get_or("shards", cfg.shards).map_err(CliError::usage)?;
    cfg.chaos_plans = a.get_or("ops", cfg.chaos_plans).map_err(CliError::usage)?;
    cfg.seed = a.get_or("seed", cfg.seed).map_err(CliError::usage)?;
    if cfg.len == 0 || cfg.reps == 0 || cfg.shards == 0 {
        return Err(CliError::usage(
            "--len, --reps, and --shards must be at least 1",
        ));
    }
    let exe = std::env::current_exe()
        .map_err(|e| CliError::runtime(format!("cannot locate own binary: {e}")))?;
    cfg.worker_cmd = vec![
        exe.to_string_lossy().into_owned(),
        "shard-worker".to_string(),
    ];
    let report = flsa_bench::shard::run(&cfg).map_err(CliError::runtime)?;
    print!("{}", report.render());
    let out = a.str_or("out", "BENCH_shard.json");
    std::fs::write(out, report.to_json()).map_err(|e| CliError::runtime(format!("{out}: {e}")))?;
    println!("report          -> {out}");
    if let Some(gate) = a.options.get("gate") {
        let gate: f64 = gate
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --gate value {gate:?}")))?;
        if !report.all_identical() {
            return Err(CliError::runtime(
                "shard bench correctness failure: a run diverged from the sequential engine",
            ));
        }
        let worst = report.worst_chaos_ms();
        println!("chaos gate      {worst:.0} ms worst recovery, {gate:.0} ms allowed");
        if worst > gate {
            return Err(CliError::runtime(format!(
                "shard recovery regression: slowest chaos run took {worst:.0} ms \
                 end to end (gate {gate:.0} ms)"
            )));
        }
    }
    Ok(())
}

fn cmd_bench_kernels(a: &args::Args) -> Result<(), CliError> {
    let lens: Vec<usize> = match a.options.get("len") {
        None => vec![1024, 4096, 10_000],
        Some(csv) => csv
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| CliError::usage(format!("invalid --len element {s:?}")))
            })
            .collect::<Result<_, _>>()?,
    };
    let reps: usize = a.get_or("reps", 3).map_err(CliError::usage)?;
    if lens.is_empty() || reps == 0 {
        return Err(CliError::usage("--len and --reps must be non-empty"));
    }
    let report = flsa_bench::kernels::run(&lens, reps);
    print!("{}", report.render());
    println!(
        "cpu features: {}   best backend: {}",
        if report.cpu_features.is_empty() {
            "none".to_string()
        } else {
            report.cpu_features.join(", ")
        },
        report.best_backend
    );
    let out = a.str_or("out", "BENCH_kernels.json");
    std::fs::write(out, report.to_json()).map_err(|e| CliError::runtime(format!("{out}: {e}")))?;
    println!("report          -> {out}");
    if let Some(gate) = a.options.get("gate") {
        let gate: f64 = gate
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --gate value {gate:?}")))?;
        let speedup = report.best_speedup().unwrap_or(0.0);
        println!("speedup gate    {speedup:.2}x measured, {gate:.2}x required");
        if speedup < gate {
            return Err(CliError::runtime(format!(
                "kernel speedup regression: best vectorized backend reached only \
                 {speedup:.2}x scalar (gate {gate:.2}x)"
            )));
        }
        // Dispatch-order sanity: detect_best prefers the widest vector
        // backend, so the widest must not be slower than the next-widest.
        if let Some(ratio) = report.widest_vs_next() {
            println!(
                "dispatch gate   widest vector backend {ratio:.2}x next-widest, 1.00x required"
            );
            if ratio < 1.0 {
                return Err(CliError::runtime(format!(
                    "kernel dispatch regression: widest vector backend runs at only \
                     {ratio:.2}x the next-widest, so auto-dispatch picks a slower kernel"
                )));
            }
        }
        // The inter-sequence batch kernel must earn its keep: >= 3x the
        // single-pair path on its best measured size.
        let batch = report.batch_best_speedup().unwrap_or(0.0);
        println!("batch gate      {batch:.2}x measured, 3.00x required");
        if batch < 3.0 {
            return Err(CliError::runtime(format!(
                "batch kernel regression: batched alignment reached only \
                 {batch:.2}x the single-pair path (gate 3.00x)"
            )));
        }
    }
    Ok(())
}

/// `flsa bench metrics`: measures what the metrics layer costs — the
/// record-path nanobenches plus a metrics-on vs metrics-off end-to-end
/// parallel align — writes the JSON report, and optionally gates on the
/// end-to-end overhead percentage.
fn cmd_bench_metrics(a: &args::Args) -> Result<(), CliError> {
    let len: usize = a.get_or("len", 10_000).map_err(CliError::usage)?;
    let reps: usize = a.get_or("reps", 3).map_err(CliError::usage)?;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = a.get_or("threads", 4.min(host)).map_err(CliError::usage)?;
    if len == 0 || reps == 0 || threads == 0 {
        return Err(CliError::usage(
            "--len, --reps, and --threads must be at least 1",
        ));
    }
    let report = flsa_bench::metrics::run(len, reps, threads);
    print!("{}", report.render());
    println!(
        "cpu features: {}   best backend: {}",
        if report.cpu_features.is_empty() {
            "none".to_string()
        } else {
            report.cpu_features.join(", ")
        },
        report.best_backend
    );
    let out = a.str_or("out", "BENCH_metrics.json");
    std::fs::write(out, report.to_json()).map_err(|e| CliError::runtime(format!("{out}: {e}")))?;
    println!("report          -> {out}");
    if let Some(gate) = a.options.get("gate") {
        let gate: f64 = gate
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --gate value {gate:?}")))?;
        let overhead = report.overhead_pct();
        println!("overhead gate   {overhead:+.2}% measured, {gate:.2}% allowed");
        if overhead > gate {
            return Err(CliError::runtime(format!(
                "metrics overhead regression: metrics-on align cost {overhead:.2}% \
                 over metrics-off (gate {gate:.2}%)"
            )));
        }
    }
    Ok(())
}

fn cmd_gen(a: &args::Args) -> Result<(), CliError> {
    let kind = a.str_or("kind", "dna");
    let alphabet = match kind {
        "dna" => Alphabet::dna(),
        "protein" => Alphabet::protein(),
        other => return Err(CliError::usage(format!("unknown kind {other:?}"))),
    };
    let len: usize = a.get_or("len", 1000).map_err(CliError::usage)?;
    let identity: f64 = a.get_or("identity", 0.85).map_err(CliError::usage)?;
    let seed: u64 = a.get_or("seed", 42).map_err(CliError::usage)?;
    let (sa, sb) = generate::homologous_pair("pair", &alphabet, len, identity, seed)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let text = fasta::to_string(&[sa, sb]);
    match a.options.get("out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| CliError::runtime(format!("{path}: {e}")))?
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_info() -> Result<(), CliError> {
    println!("substitution matrices:");
    for m in [
        tables::dna_default(),
        tables::blosum62(),
        tables::pam250(),
        tables::mdm_fragment(),
    ] {
        println!(
            "  {:16} alphabet={} scores {}..{}",
            m.name(),
            m.alphabet().name(),
            m.min_score(),
            m.max_score()
        );
    }
    println!("\nworkload suite (synthetic Table 3 stand-in):");
    for w in flsa_seq::workload::SUITE {
        println!(
            "  {:12} {:?} len={} identity={:.2} seed={}",
            w.name, w.kind, w.len, w.identity, w.seed
        );
    }
    let features = flsa_dp::detected_cpu_features();
    println!(
        "\ncpu simd features: {}",
        if features.is_empty() {
            "none detected".to_string()
        } else {
            features.join(", ")
        }
    );
    println!("kernel backends:");
    for b in KernelBackend::ALL {
        println!(
            "  {:8} {}{}",
            b.name(),
            if b.is_available() {
                "available"
            } else {
                "unavailable on this CPU"
            },
            if b == KernelBackend::detect_best() {
                "  (auto pick)"
            } else {
                ""
            },
        );
    }
    Ok(())
}
