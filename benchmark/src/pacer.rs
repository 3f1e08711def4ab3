//! Open-loop pacing.
//!
//! Requests are due on a fixed schedule (`start + i / rate`) whatever
//! the system under test is doing. The pacer never sends early: it
//! sleeps until [`SPIN_BEFORE`] ahead of the due instant and spins the
//! rest, because a bare `sleep` overshoots by tens of microseconds to
//! milliseconds. Latency is always taken **from the due instant**, so a
//! stall that delays later sends is charged to those requests
//! (no coordinated omission); how late each send actually left is
//! recorded separately so a generator that cannot keep up is visible.

use std::time::{Duration, Instant};

use crate::util::Samples;

/// How long before the due instant the pacer stops sleeping and spins.
pub const SPIN_BEFORE: Duration = Duration::from_micros(300);

pub struct Pacer {
    start: Instant,
    period: Duration,
    next: u64,
    /// Send instant minus due instant, µs, one per request sent.
    pub late_us: Samples,
}

impl Pacer {
    /// A schedule of `rate` requests per second whose first request is
    /// due at `start`.
    pub fn new(start: Instant, rate: f64) -> Pacer {
        assert!(rate > 0.0, "rate must be positive");
        Pacer {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
            next: 0,
            late_us: Samples::new(),
        }
    }

    /// Due instant of request `i`.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period.mul_f64(i as f64)
    }

    /// Index of the next request to send.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Waits for the next request's due instant (returning at once if
    /// it has passed) and returns it; `None` once that instant — or the
    /// clock — is at or after `end`: the phase is over, the request is
    /// not sent, and anything that was due counts as backlog.
    pub fn wait_next(&mut self, end: Instant) -> Option<Instant> {
        let due = self.due(self.next);
        if due >= end || Instant::now() >= end {
            return None;
        }
        loop {
            let now = Instant::now();
            if now >= due {
                self.late_us.push((now - due).as_secs_f64() * 1e6);
                self.next += 1;
                return Some(due);
            }
            let left = due - now;
            if left > SPIN_BEFORE {
                std::thread::sleep(left - SPIN_BEFORE);
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Requests that were due before `end` but never sent — a growing
    /// backlog. Zero when the generator kept up.
    pub fn backlog(&self, end: Instant) -> u64 {
        let mut due_before_end = self.next;
        while self.due(due_before_end) < end {
            due_before_end += 1;
        }
        due_before_end - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_sends_early_and_times_from_due() {
        let start = Instant::now() + Duration::from_millis(5);
        let end = start + Duration::from_millis(40);
        let mut p = Pacer::new(start, 500.0);
        let mut sent = 0u64;
        while let Some(due) = p.wait_next(end) {
            let now = Instant::now();
            assert!(now >= due, "request {sent} left before it was due");
            assert_eq!(
                due,
                p.due(sent),
                "latency base is the schedule, not the send"
            );
            sent += 1;
            if sent == 3 {
                // A stall: the following requests are already due when
                // the generator comes back, leave at once, and their
                // lateness (charged from the due instant) shows it.
                std::thread::sleep(Duration::from_millis(7));
            }
        }
        // 500/s for 40 ms is 20 requests: each was sent or is backlog.
        assert_eq!(sent + p.backlog(end), 20);
        assert_eq!(p.late_us.len() as u64, sent);
        assert!(
            p.late_us.max() >= 4_000.0,
            "the stall is visible as lateness"
        );
    }

    #[test]
    fn backlog_counts_due_but_unsent() {
        let start = Instant::now();
        let p = Pacer::new(start, 100.0);
        // Nothing sent, phase "ended" 95 ms in: requests 0..=9 were due.
        assert_eq!(p.backlog(start + Duration::from_millis(95)), 10);
    }
}
