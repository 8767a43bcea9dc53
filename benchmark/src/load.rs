//! The open-loop generator of `city-live`: operations are due on a fixed
//! schedule whatever the system does, are served in order by one thread,
//! and are timed from their *due* time — so a stall is charged to every
//! request that had to wait behind it, and how late the generator ran is a
//! number of its own.

use std::time::{Duration, Instant};

pub trait Clock {
    /// Time since the run's origin.
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

/// The real clock; threads that share an origin share a timeline.
#[derive(Clone, Copy)]
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep_until(&self, t: Duration) {
        std::thread::sleep(t.saturating_sub(self.now()));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub due: Duration,
    pub start: Duration,
    pub end: Duration,
}

impl Sample {
    /// What a user waited: from the moment the request should have been
    /// sent to its answer.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.due).as_secs_f64() * 1e3
    }
    /// How late the generator started it.
    pub fn late_ms(&self) -> f64 {
        (self.start - self.due).as_secs_f64() * 1e3
    }
    pub fn service_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Runs `n` operations, the `i`-th due at `first_due + i × interval`.
pub fn open_loop<C: Clock>(
    clock: &C,
    first_due: Duration,
    interval: Duration,
    n: usize,
    mut op: impl FnMut(usize),
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let due = first_due + interval * i as u32;
        if clock.now() < due {
            clock.sleep_until(due);
        }
        let start = clock.now();
        op(i);
        samples.push(Sample { due, start, end: clock.now() });
    }
    samples
}

/// Operations still queued behind the last one when it started.
pub fn backlog_end(samples: &[Sample], interval: Duration) -> f64 {
    samples.last().map_or(0.0, |s| (s.late_ms() / 1e3 / interval.as_secs_f64()).floor())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use std::cell::Cell;

    /// Virtual time: sleeping jumps to the target, work advances it.
    struct Virtual(Cell<Duration>);

    impl Clock for Virtual {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.set(t.max(self.0.get()));
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        let ms = Duration::from_millis;
        let clock = Virtual(Cell::new(Duration::ZERO));
        // 100 requests 25 ms apart, 5 ms of service each; request 10
        // stalls for 300 ms.
        let samples = open_loop(&clock, ms(0), ms(25), 100, |i| {
            let work = if i == 10 { ms(300) } else { ms(5) };
            clock.0.set(clock.0.get() + work);
        });
        // Before the stall everything is on time.
        assert_eq!(samples[9].latency_ms(), 5.0);
        assert_eq!(samples[9].late_ms(), 0.0);
        // The stalled request itself, then the queue behind it: request 11
        // was due at 275 ms but could only start at 550 ms.
        assert_eq!(samples[10].latency_ms(), 300.0);
        assert_eq!(samples[11].late_ms(), 275.0);
        assert_eq!(samples[11].latency_ms(), 280.0);
        // The backlog drains at 20 ms per request (25 due − 5 service):
        // request 24 is the last one late, by 15 ms.
        assert_eq!(samples[24].late_ms(), 15.0);
        assert_eq!(samples[25].late_ms(), 0.0);
        assert_eq!(backlog_end(&samples, ms(25)), 0.0);
        // 14 late requests of 100: the late p95 reports the wait, and the
        // latency p95 carries it too — closed-loop timing would show 5 ms.
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        let (late_p95, q) = percentile(&late, 0.95);
        assert!((q, late_p95) == (0.9, 75.0), "late p{q} = {late_p95}");
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        assert_eq!(percentile(&lat, 0.95).0, 100.0);
        let service: f64 = samples.iter().map(Sample::service_s).sum();
        assert!((service - (99.0 * 0.005 + 0.3)).abs() < 1e-9);
    }

    #[test]
    fn a_generator_that_cannot_keep_up_ends_with_a_backlog() {
        let ms = Duration::from_millis;
        let clock = Virtual(Cell::new(Duration::ZERO));
        let samples = open_loop(&clock, ms(0), ms(10), 50, |_| {
            clock.0.set(clock.0.get() + ms(15));
        });
        // Each request falls 5 ms further behind: the last starts 245 ms late.
        assert_eq!(samples[49].late_ms(), 245.0);
        assert_eq!(backlog_end(&samples, ms(10)), 24.0);
    }
}
