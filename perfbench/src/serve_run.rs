//! The serving layer's harness: an in-process `flsa-serve` daemon driven
//! over one pipelined TCP connection by a sender thread and a reader
//! thread. The traced run's serve and spool probes drive it with one of
//! two kinds of phase:
//! - an open loop at a fixed offered rate, latency timed from each
//!   request's due time;
//! - a closed loop with a fixed window of outstanding requests.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use fastlsa_core::align_with;
use flsa_dp::Metrics;
use flsa_metrics::Registry;
use flsa_serve::wire::Frame;
use flsa_serve::{job, Client, ServeConfig, Server};

use crate::inputs::{self, ServeItem};
use crate::openloop::{self, Clock, RealClock, Schedule};
use crate::oracle::{self, Outcome, Tally};
use crate::stats::Window;

/// Worker threads of the daemon (the host has two cores).
pub const WORKERS: usize = 2;
/// Queue capacity, large enough that a stall queues work instead of
/// refusing it: refusals would count as failures.
pub const QUEUE_CAP: usize = 4096;
/// The open-loop rate, req/s: about half the capacity of a daemon serving
/// [`inputs::serve_pool`], 11,900–13,500 req/s when this benchmark was
/// added (two workers, a closed loop of 32 outstanding requests, 2 vCPUs,
/// no spool).
pub const OPEN_RATE: f64 = 6000.0;
/// Requests per latency window: the open loop's median and tail are
/// medians over windows, so one stall of the shared host moves one
/// window's tail rather than the whole phase's.
pub const LATENCY_WINDOW: usize = 1000;
/// A reply slower than this is treated as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// What an in-process `align` of a pool entry produced.
#[derive(Debug, Clone)]
pub struct Expected {
    pub score: i64,
    pub cigar: String,
    /// The in-process result itself matched the `i64` reference and
    /// re-scored to its score.
    pub consistent: bool,
}

impl Expected {
    fn outcome(&self, score: i64, cigar: &str) -> Outcome {
        if self.consistent && score == self.score && cigar == self.cigar {
            Outcome::Ok
        } else {
            Outcome::Mismatch
        }
    }
}

/// Aligns every pool entry in-process exactly as the daemon would
/// (same validation, same configuration) and checks each result against
/// the `i64` reference. `metrics` accumulates the engine's counts.
pub fn expectations(pool: &[ServeItem], metrics: &Metrics) -> Result<Vec<Expected>, String> {
    pool.iter()
        .map(|item| {
            let spec = job::validate(item.request.clone())
                .map_err(|(code, d)| format!("{code:?}: {d}"))?;
            let res = align_with(&spec.a, &spec.b, &spec.scheme, spec.config, metrics)
                .map_err(|e| e.to_string())?;
            let reference = oracle::linear_score(spec.a.codes(), spec.b.codes(), &spec.scheme);
            let rescored = res.path.score(&spec.a, &spec.b, &spec.scheme);
            Ok(Expected {
                score: res.score,
                cigar: job::cigar(&res.path),
                consistent: oracle::check(res.score, rescored, reference) == Outcome::Ok
                    && res.path.is_global(spec.a.len(), spec.b.len()),
            })
        })
        .collect()
}

/// A started daemon, with its private spool directory if it has one.
pub struct Daemon {
    pub server: Server,
    pub addr: SocketAddr,
    spool: Option<PathBuf>,
}

impl Daemon {
    /// Starts a daemon; with `spool` it spools into a fresh directory
    /// under [`spool_root`].
    ///
    /// The serve probe's daemon runs without a spool. With one, each
    /// medium request's fsync'd request file is written on the
    /// connection's reader thread, so every request behind it waits for
    /// the disk: closed-loop capacity swung 2,800–8,000 req/s and the
    /// open-loop median 0.4–2.8 ms between runs with the host's disk
    /// load. The spool probe measures the spool on its own.
    pub fn start(registry: Option<Arc<Registry>>, spool: bool) -> Result<Daemon, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = spool.then(|| {
            // Relaxed: a unique-name tick, nothing is published through it.
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            spool_root().join(format!("spool-{}-{n}", std::process::id()))
        });
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let mut cfg = ServeConfig::new("127.0.0.1:0");
        cfg.workers = WORKERS;
        cfg.queue_cap = QUEUE_CAP;
        cfg.spool_dir = dir.clone();
        cfg.registry = registry;
        let server = Server::start(cfg).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        Ok(Daemon {
            server,
            addr,
            spool: dir,
        })
    }

    /// Drains, joins and removes the spool directory.
    pub fn stop(self) {
        self.server.drain();
        let _ = self.server.join();
        if let Some(d) = &self.spool {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// Where spools and checkpoints go: inside the benchmark's own directory.
pub fn spool_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".spool")
}

/// How requests are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// `count` requests at `rate` per second regardless of replies.
    Open { rate: f64, count: usize },
    /// `count` requests, keeping `window` of them outstanding.
    Closed { window: usize, count: usize },
}

/// What one phase measured. Replies are checked and folded into these
/// aggregates as they arrive, so the benchmark's own memory stays flat
/// however many requests a phase sends.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Every sent request's outcome; an unanswered one is an error.
    pub tally: Tally,
    /// Median and tail of each consecutive window of [`LATENCY_WINDOW`]
    /// open-loop replies, in arrival order, latency timed from the due
    /// time. A trailing window of fewer than half that (the loop's
    /// drain) is left out.
    pub latency: Vec<Window>,
    /// Send minus due time, ms, of every open-loop request.
    pub lag_ms: Vec<f64>,
}

/// Runs one phase against `addr`. `pick(i)` chooses request `i`'s pool
/// entry; each reply is checked against `expected` as it arrives.
pub fn run_phase(
    addr: SocketAddr,
    pool: &[ServeItem],
    expected: &[Expected],
    pick: impl Fn(usize) -> usize + Sync,
    pacing: Pacing,
    clock: &RealClock,
) -> Result<PhaseOut, String> {
    let err = |e: flsa_serve::ProtocolError| e.to_string();
    let mut sender = Client::connect(addr).map_err(err)?;
    let mut reader = sender.try_clone().map_err(err)?;
    reader.set_timeout(Some(REPLY_TIMEOUT)).map_err(err)?;
    let sent_count = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    let schedule = match pacing {
        Pacing::Open { rate, count } => {
            Some(Schedule::at_rate(clock.now_ns() + 1_000_000, rate, count))
        }
        Pacing::Closed { .. } => None,
    };
    let mut lag_ms = Vec::new();

    let collected = std::thread::scope(|s| {
        let (sent_count, sender_done, pick) = (&sent_count, &sender_done, &pick);
        let reader_thread = s.spawn(move || -> Result<PhaseOut, String> {
            let mut agg = PhaseOut::default();
            let mut answered = 0usize;
            let mut cur: Vec<f64> = Vec::with_capacity(LATENCY_WINDOW);
            loop {
                // SeqCst pairs with the sender's stores: once `done` is
                // seen, `sent_count` is final.
                if sender_done.load(Ordering::SeqCst)
                    && answered == sent_count.load(Ordering::SeqCst)
                {
                    break;
                }
                let frame = reader.recv().map_err(err)?;
                let at = clock.now_ns();
                let (id, outcome) = match frame {
                    Frame::Ok(r) => {
                        let outcome = match expected.get(pick(r.id as usize)) {
                            Some(e) => e.outcome(r.score, &r.cigar),
                            None => Outcome::Mismatch,
                        };
                        (r.id as usize, outcome)
                    }
                    Frame::Fail(f) => (f.id as usize, Outcome::Error),
                    Frame::Overloaded { id, .. } => (id as usize, Outcome::Rejected),
                    Frame::Pong(_) => continue,
                    other => return Err(format!("unexpected frame {other:?}")),
                };
                answered += 1;
                agg.tally.record(outcome);
                if let Some(sch) = &schedule {
                    cur.push(sch.since_due_ms(id, at));
                    if cur.len() == LATENCY_WINDOW {
                        agg.latency.extend(Window::of(&cur));
                        cur.clear();
                    }
                }
                let _ = permit_tx.send(());
            }
            if cur.len() >= LATENCY_WINDOW / 2 {
                agg.latency.extend(Window::of(&cur));
            }
            Ok(agg)
        });

        let mut send = |i: usize| -> bool {
            let mut request = pool[pick(i)].request.clone();
            request.id = i as u64;
            let t0 = clock.now_ns();
            let ok = sender.send(&Frame::Align(request)).is_ok();
            if ok {
                if let Some(sch) = &schedule {
                    lag_ms.push(sch.since_due_ms(i, t0));
                }
                sent_count.fetch_add(1, Ordering::SeqCst);
            }
            ok
        };
        if let Some(sch) = &schedule {
            let _ = openloop::pace(clock, sch, &mut send);
        } else if let Pacing::Closed { window, count } = pacing {
            for i in 0..count {
                if i >= window && permit_rx.recv().is_err() {
                    break;
                }
                if !send(i) {
                    break;
                }
            }
        }
        sender_done.store(true, Ordering::SeqCst);
        // Wakes the reader if every reply arrived before `done` was set.
        let _ = sender.send(&Frame::Ping(u64::MAX));
        reader_thread
            .join()
            .map_err(|_| "reader thread panicked".to_string())?
    })?;

    let mut out = PhaseOut {
        lag_ms,
        ..collected
    };
    for _ in out.tally.attempted..sent_count.load(Ordering::SeqCst) as u64 {
        out.tally.record(Outcome::Error);
    }
    Ok(out)
}

/// Pool entry of request `i` in a phase seeded with `seed`.
pub fn pick(seed: u64, i: usize) -> usize {
    (inputs::sub_seed(seed, i as u64) % inputs::SERVE_POOL as u64) as usize
}
