//! Open-loop pacing and its accounting.
//!
//! Request `i` is due at `start + i · interval` whether or not earlier
//! requests have been answered. Its latency is timed from when it was
//! *due*, not from when it was actually sent, so a stall in the sender
//! or the server is charged to every request it delayed; how late the
//! sender ran is reported separately as the generator lag.

use std::time::{Duration, Instant};

/// A source of time the pacing loop can wait on.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t_ns`.
    fn sleep_until(&self, t_ns: u64);
}

/// Wall-clock time since a fixed instant.
pub struct RealClock {
    pub epoch: Instant,
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            let left = t_ns - now;
            if left > 200_000 {
                // Sleep most of the way; spin the last stretch so the
                // send is not late by a scheduler quantum.
                std::thread::sleep(Duration::from_nanos(left - 150_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// A fixed-rate arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    pub start_ns: u64,
    pub interval_ns: u64,
    pub count: usize,
}

impl Schedule {
    /// `count` arrivals at `rate` per second from `start_ns`.
    pub fn at_rate(start_ns: u64, rate: f64, count: usize) -> Schedule {
        Schedule {
            start_ns,
            interval_ns: (1e9 / rate).round() as u64,
            count,
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> u64 {
        self.start_ns + i as u64 * self.interval_ns
    }

    /// How long after request `i` was due `t_ns` is, ms (0 when early):
    /// the generator's lag at the send, the request's latency at the
    /// reply.
    pub fn since_due_ms(&self, i: usize, t_ns: u64) -> f64 {
        t_ns.saturating_sub(self.due(i)) as f64 / 1e6
    }
}

/// Sends every request of `schedule` at (or, when behind, as soon as
/// possible after) its due time. `send(i)` submits request `i`; a false
/// return stops the loop. Returns when each send started, in ns.
pub fn pace<C: Clock>(
    clock: &C,
    schedule: &Schedule,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<u64> {
    let mut sent = Vec::with_capacity(schedule.count);
    for i in 0..schedule.count {
        clock.sleep_until(schedule.due(i));
        sent.push(clock.now_ns());
        if !send(i) {
            break;
        }
    }
    sent
}
