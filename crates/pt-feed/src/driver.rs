//! The ingestion loop: poll a [`FeedSource`], decode with quarantine,
//! batch under backpressure, apply through `ShardedService::apply_feed`.
//!
//! The driver is the piece that makes a messy producer safe to point at a
//! serving process:
//!
//! * **bounded queue** — decoded events wait in a queue of configurable
//!   capacity; a producer bursting faster than the service applies cannot
//!   grow memory without limit;
//! * **overflow coalescing** — when the queue is full the driver first
//!   *coalesces*: a `Cancel` re-announces a train's published schedule, so
//!   any queued events for that train **before** its last queued `Cancel`
//!   are dead weight — dropping them changes intermediate states only,
//!   never the final one. Only if coalescing frees nothing does the driver
//!   force a synchronous flush (it never silently drops a live event);
//! * **retry with backoff** — transient source errors are retried up to a
//!   budget with doubling sleeps; permanent errors (and an exhausted
//!   budget) surface as a typed [`DriverError`].
//!
//! Everything observable is counted in [`FeedStats`].

use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

use pt_spcs::{RouterError, ShardId, ShardedService};
use pt_timetable::DelayEvent;

use crate::source::{FeedPoll, FeedSource, SourceError};
use crate::wire::{FeedDecoder, Quarantine};

/// Tuning knobs of a [`FeedDriver`]; `Default` is sized for the synthetic
/// presets and the replay bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedDriverConfig {
    /// Most events per `apply_feed` call; the queue flushes whenever it
    /// holds at least this many.
    pub batch_events: usize,
    /// Queue capacity; reaching it triggers coalescing, then a forced
    /// flush.
    pub queue_events: usize,
    /// Transient-error retries per poll before giving up.
    pub max_retries: u32,
    /// First retry backoff; doubles per consecutive retry. Zero disables
    /// sleeping (tests, replay).
    pub backoff: Duration,
    /// Sleep between polls in [`FeedDriver::run`]. Zero polls hot
    /// (replay).
    pub poll_interval: Duration,
}

impl Default for FeedDriverConfig {
    fn default() -> FeedDriverConfig {
        FeedDriverConfig {
            batch_events: 256,
            queue_events: 1024,
            max_retries: 3,
            backoff: Duration::from_millis(50),
            poll_interval: Duration::from_millis(200),
        }
    }
}

impl FeedDriverConfig {
    /// A config for replaying recorded feeds at full speed: no sleeps
    /// anywhere, everything else default.
    pub fn replay() -> FeedDriverConfig {
        FeedDriverConfig {
            backoff: Duration::ZERO,
            poll_interval: Duration::ZERO,
            ..FeedDriverConfig::default()
        }
    }
}

/// Everything a [`FeedDriver`] counts; cheap to clone, printed by the
/// replay harness and asserted by CI.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeedStats {
    /// Successful polls (batches and idles).
    pub polls: u64,
    /// Polls that returned [`FeedPoll::Idle`].
    pub idle_polls: u64,
    /// Transient source errors absorbed by retrying.
    pub transient_errors: u64,
    /// Wire lines received (including blanks/comments/garbage).
    pub lines: u64,
    /// Lines that decoded into events.
    pub events_decoded: u64,
    /// Malformed lines, with per-kind counters and samples.
    pub quarantine: Quarantine,
    /// Events whose producer timestamp ran backwards relative to the
    /// previous event (accepted — `apply_feed` is order-insensitive per
    /// train state — but counted, because a healthy producer is ordered).
    pub out_of_order: u64,
    /// `apply_feed` calls made.
    pub batches_applied: u64,
    /// Events delivered to `apply_feed`.
    pub events_applied: u64,
    /// Batches after which at least one shard changed.
    pub changed_batches: u64,
    /// Queued events dropped by overflow coalescing (each was superseded
    /// by a later queued `Cancel` of the same train).
    pub coalesced_dropped: u64,
    /// Times a full queue forced a synchronous flush.
    pub forced_flushes: u64,
    /// High-water mark of the queue.
    pub max_queue_len: usize,
    /// Wall time spent inside `apply_feed`, in nanoseconds.
    pub apply_ns: u128,
}

impl fmt::Display for FeedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "polls {} (idle {}, transient errors {})",
            self.polls, self.idle_polls, self.transient_errors
        )?;
        writeln!(f, "lines {} → events {} ({})", self.lines, self.events_decoded, self.quarantine)?;
        writeln!(
            f,
            "applied {} events in {} batches ({} changed) in {:.1} ms",
            self.events_applied,
            self.batches_applied,
            self.changed_batches,
            self.apply_ns as f64 / 1e6
        )?;
        write!(
            f,
            "queue high-water {} (coalesced {}, forced flushes {}, out-of-order {})",
            self.max_queue_len, self.coalesced_dropped, self.forced_flushes, self.out_of_order
        )
    }
}

/// Why a driver run stopped early. Malformed *lines* never produce this —
/// they are quarantined — only the source or the service failing does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The source failed permanently, or exhausted the retry budget.
    Source(SourceError),
    /// `apply_feed` rejected a batch (cannot happen for roster-validated
    /// events; surfaced for honesty).
    Apply(RouterError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Source(e) => write!(f, "feed source failed: {e}"),
            DriverError::Apply(e) => write!(f, "apply_feed rejected batch: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// What one [`FeedDriver::tick`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// A batch of lines was ingested.
    Progress,
    /// The source had nothing new.
    Idle,
    /// The source is exhausted; the queue may still hold events
    /// ([`FeedDriver::drain`] flushes them).
    End,
}

/// The polling ingestion loop. Borrows the service — `apply_feed` takes
/// `&self` (per-shard writer locks serialize internally), so a driver can
/// run on a plain thread next to serving threads with no extra locking.
pub struct FeedDriver<'a> {
    svc: &'a ShardedService,
    decoder: FeedDecoder,
    config: FeedDriverConfig,
    queue: VecDeque<(ShardId, DelayEvent)>,
    last_time: Option<pt_core::Time>,
    stats: FeedStats,
}

impl<'a> FeedDriver<'a> {
    /// A driver feeding `svc`, with the decoder's roster derived from the
    /// service (shard count and per-shard train counts), so invalid ids
    /// are quarantined before they ever reach `apply_feed`.
    pub fn new(svc: &'a ShardedService, config: FeedDriverConfig) -> FeedDriver<'a> {
        let roster: Vec<u32> = svc
            .shard_ids()
            .map(|s| svc.network(s).map(|n| n.timetable().num_trains() as u32).unwrap_or(0))
            .collect();
        FeedDriver {
            svc,
            decoder: FeedDecoder::with_roster(roster),
            config,
            queue: VecDeque::new(),
            last_time: None,
            stats: FeedStats::default(),
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> &FeedStats {
        &self.stats
    }

    /// Events currently queued (decoded, not yet applied).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// One poll-decode-enqueue-flush cycle. Retries transient source
    /// errors with doubling backoff up to the configured budget; malformed
    /// lines are quarantined, never fatal.
    pub fn tick(&mut self, src: &mut dyn FeedSource) -> Result<TickOutcome, DriverError> {
        let poll = self.poll_with_retry(src)?;
        self.stats.polls += 1;
        let outcome = match poll {
            FeedPoll::Idle => {
                self.stats.idle_polls += 1;
                TickOutcome::Idle
            }
            FeedPoll::End => TickOutcome::End,
            FeedPoll::Batch(lines) => {
                self.ingest(&lines)?;
                TickOutcome::Progress
            }
        };
        // Flush full batching windows (leave a partial window queued for
        // the next tick to fill — that is the batching).
        while self.queue.len() >= self.config.batch_events {
            self.flush_batch()?;
        }
        Ok(outcome)
    }

    /// Runs the loop until the source reports [`FeedPoll::End`], then
    /// drains the queue. Returns the final stats.
    pub fn run(&mut self, src: &mut dyn FeedSource) -> Result<FeedStats, DriverError> {
        loop {
            match self.tick(src)? {
                TickOutcome::End => break,
                TickOutcome::Progress | TickOutcome::Idle => {
                    if !self.config.poll_interval.is_zero() {
                        std::thread::sleep(self.config.poll_interval);
                    }
                }
            }
        }
        self.drain()?;
        Ok(self.stats.clone())
    }

    /// Flushes every queued event.
    pub fn drain(&mut self) -> Result<(), DriverError> {
        while !self.queue.is_empty() {
            self.flush_batch()?;
        }
        Ok(())
    }

    fn poll_with_retry(&mut self, src: &mut dyn FeedSource) -> Result<FeedPoll, DriverError> {
        let mut backoff = self.config.backoff;
        let mut attempt = 0u32;
        loop {
            match src.poll() {
                Ok(p) => return Ok(p),
                Err(e) if e.transient && attempt < self.config.max_retries => {
                    attempt += 1;
                    self.stats.transient_errors += 1;
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff *= 2;
                    }
                }
                Err(e) => return Err(DriverError::Source(e)),
            }
        }
    }

    fn ingest(&mut self, lines: &[String]) -> Result<(), DriverError> {
        self.stats.lines += lines.len() as u64;
        let events = self.decoder.decode_batch(lines, &mut self.stats.quarantine);
        self.stats.events_decoded += events.len() as u64;
        for ev in events {
            if let Some(last) = self.last_time {
                if ev.time < last {
                    self.stats.out_of_order += 1;
                }
            }
            self.last_time = Some(self.last_time.map_or(ev.time, |l| l.max(ev.time)));
            // Enqueue first so an incoming Cancel participates in its own
            // overflow coalescing (it is exactly what supersedes backlog).
            self.queue.push_back((ev.shard, ev.event));
            self.stats.max_queue_len = self.stats.max_queue_len.max(self.queue.len());
            if self.queue.len() > self.config.queue_events {
                self.coalesce();
                if self.queue.len() > self.config.queue_events {
                    // Nothing (enough) to coalesce away: apply synchronously
                    // rather than drop a live event or grow without bound.
                    self.stats.forced_flushes += 1;
                    self.flush_batch()?;
                }
            }
        }
        Ok(())
    }

    /// Drops queued events made irrelevant by a *later* queued `Cancel` of
    /// the same (shard, train): the cancel re-announces the published
    /// schedule, so the final state after the flush is identical — only
    /// intermediate states (which the overflowing queue was going to
    /// batch through anyway) differ. Returns how many events were freed.
    fn coalesce(&mut self) -> u64 {
        use std::collections::HashMap;
        // Last Cancel position per (shard, train).
        let mut last_cancel: HashMap<(u32, u32), usize> = HashMap::new();
        for (i, (shard, ev)) in self.queue.iter().enumerate() {
            if let DelayEvent::Cancel { train } = ev {
                last_cancel.insert((shard.0, train.0), i);
            }
        }
        if last_cancel.is_empty() {
            return 0;
        }
        let before = self.queue.len();
        let mut i = 0usize;
        self.queue.retain(|(shard, ev)| {
            let idx = i;
            i += 1;
            match last_cancel.get(&(shard.0, ev.train().0)) {
                Some(&c) => idx >= c, // keep the Cancel itself and later events
                None => true,
            }
        });
        let dropped = (before - self.queue.len()) as u64;
        self.stats.coalesced_dropped += dropped;
        dropped
    }

    fn flush_batch(&mut self) -> Result<(), DriverError> {
        let n = self.queue.len().min(self.config.batch_events);
        if n == 0 {
            return Ok(());
        }
        let batch: Vec<(ShardId, DelayEvent)> = self.queue.drain(..n).collect();
        let start = Instant::now();
        let outcomes = self.svc.apply_feed(&batch).map_err(DriverError::Apply)?;
        self.stats.apply_ns += start.elapsed().as_nanos();
        self.stats.batches_applied += 1;
        self.stats.events_applied += batch.len() as u64;
        if outcomes.iter().any(|(_, o)| o.published.is_some()) {
            self.stats.changed_batches += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::RecordedFeed;
    use crate::wire::{encode_csv, WireEvent};
    use pt_core::{Dur, Time, TrainId};
    use pt_timetable::synthetic::presets::all_presets;
    use pt_timetable::Recovery;

    fn small_service() -> ShardedService {
        let nets: Vec<_> = all_presets(0.05)
            .into_iter()
            .take(2)
            .map(|p| pt_spcs::Network::new(p.timetable))
            .collect();
        ShardedService::builder().build(nets)
    }

    fn delay_line(shard: u32, train: u32, h: u32, m: u32, delay_s: u32) -> String {
        encode_csv(&WireEvent {
            time: Time::hm(h, m),
            shard: ShardId(shard),
            event: DelayEvent::Delay {
                train: TrainId(train),
                from_hop: 0,
                delay: Dur(delay_s),
                recovery: Recovery::None,
            },
        })
    }

    fn cancel_line(shard: u32, train: u32, h: u32, m: u32) -> String {
        encode_csv(&WireEvent {
            time: Time::hm(h, m),
            shard: ShardId(shard),
            event: DelayEvent::Cancel { train: TrainId(train) },
        })
    }

    #[test]
    fn replay_applies_and_counts() {
        let svc = small_service();
        let gen_before: Vec<u64> =
            svc.shard_ids().map(|s| svc.network(s).unwrap().generation()).collect();
        let lines = vec![
            delay_line(0, 0, 8, 0, 300),
            delay_line(1, 1, 8, 5, 120),
            "total garbage".to_string(),
            cancel_line(0, 0, 8, 10),
        ];
        let mut src = RecordedFeed::new(lines, 2);
        let mut driver = FeedDriver::new(&svc, FeedDriverConfig::replay());
        let stats = driver.run(&mut src).unwrap();
        assert_eq!(stats.lines, 4);
        assert_eq!(stats.events_decoded, 3);
        assert_eq!(stats.quarantine.total, 1);
        assert_eq!(stats.events_applied, 3);
        assert!(stats.batches_applied >= 1);
        assert!(stats.changed_batches >= 1);
        let gen_after: Vec<u64> =
            svc.shard_ids().map(|s| svc.network(s).unwrap().generation()).collect();
        assert!(gen_after.iter().zip(&gen_before).any(|(a, b)| a > b));
    }

    #[test]
    fn roster_quarantines_unknown_ids() {
        let svc = small_service();
        let lines = vec![
            delay_line(9, 0, 8, 0, 60),         // unknown shard
            delay_line(0, 9_999_999, 8, 1, 60), // unknown train
            cancel_line(0, 0, 8, 2),            // fine
        ];
        let mut src = RecordedFeed::new(lines, 10);
        let mut driver = FeedDriver::new(&svc, FeedDriverConfig::replay());
        let stats = driver.run(&mut src).unwrap();
        assert_eq!(stats.quarantine.count("unknown_shard"), 1);
        assert_eq!(stats.quarantine.count("unknown_train"), 1);
        assert_eq!(stats.events_applied, 1);
    }

    #[test]
    fn transient_errors_retry_and_recover() {
        let svc = small_service();
        let lines: Vec<String> = (0..10).map(|i| delay_line(0, i % 3, 8, i, 60)).collect();
        let inner = RecordedFeed::new(lines, 1);
        let mut src = crate::source::FlakySource::new(inner, 3);
        let mut driver = FeedDriver::new(&svc, FeedDriverConfig::replay());
        let stats = driver.run(&mut src).unwrap();
        assert_eq!(stats.events_applied, 10, "faults were absorbed");
        assert!(stats.transient_errors > 0);
        assert_eq!(stats.transient_errors, src.injected);
    }

    #[test]
    fn permanent_error_is_fatal_and_typed() {
        struct Dead;
        impl FeedSource for Dead {
            fn poll(&mut self) -> Result<FeedPoll, SourceError> {
                Err(SourceError::permanent("gone"))
            }
        }
        let svc = small_service();
        let mut driver = FeedDriver::new(&svc, FeedDriverConfig::replay());
        let err = driver.run(&mut Dead).unwrap_err();
        assert!(matches!(err, DriverError::Source(ref e) if !e.transient));
        assert!(err.to_string().contains("gone"));
    }

    #[test]
    fn retry_budget_exhaustion_is_fatal() {
        struct AlwaysFlaky;
        impl FeedSource for AlwaysFlaky {
            fn poll(&mut self) -> Result<FeedPoll, SourceError> {
                Err(SourceError::transient("still down"))
            }
        }
        let svc = small_service();
        let mut driver = FeedDriver::new(&svc, FeedDriverConfig::replay());
        let err = driver.run(&mut AlwaysFlaky).unwrap_err();
        assert!(matches!(err, DriverError::Source(ref e) if e.transient));
        assert_eq!(driver.stats().transient_errors, 3, "budget was spent first");
    }

    #[test]
    fn out_of_order_counted_not_fatal() {
        let svc = small_service();
        let lines = vec![
            delay_line(0, 0, 9, 0, 60),
            delay_line(0, 1, 8, 0, 60), // timestamp runs backwards
            delay_line(0, 2, 10, 0, 60),
        ];
        let mut src = RecordedFeed::new(lines, 10);
        let mut driver = FeedDriver::new(&svc, FeedDriverConfig::replay());
        let stats = driver.run(&mut src).unwrap();
        assert_eq!(stats.out_of_order, 1);
        assert_eq!(stats.events_applied, 3);
    }

    #[test]
    fn overflow_coalesces_via_cancel_rule_then_forces_flush() {
        let svc = small_service();
        let mut cfg = FeedDriverConfig::replay();
        cfg.queue_events = 4;
        cfg.batch_events = 100; // keep flushing out of the way
        let mut lines: Vec<String> = (0..4).map(|i| delay_line(0, 0, 8, i, 60 + i)).collect();
        lines.push(cancel_line(0, 0, 8, 30)); // supersedes all four delays
        lines.extend((0..3).map(|i| delay_line(0, 1, 9, i, 60)));
        let mut src = RecordedFeed::new(lines, 100);
        let mut driver = FeedDriver::new(&svc, FeedDriverConfig { ..cfg.clone() });
        let stats = driver.run(&mut src).unwrap();
        // Queue hit capacity when the cancel arrived; the four delays it
        // supersedes were coalesced away, so nothing was force-flushed.
        assert!(stats.coalesced_dropped >= 3, "stats: {stats:?}");
        assert_eq!(stats.forced_flushes, 0);
        // Final state equals cancel-then-delays regardless of the drops.
        assert_eq!(stats.events_applied as usize, 8 - stats.coalesced_dropped as usize);

        // Without any cancels, overflow must force a flush instead.
        let mut cfg2 = FeedDriverConfig::replay();
        cfg2.queue_events = 2;
        cfg2.batch_events = 100;
        let lines2: Vec<String> = (0..5).map(|i| delay_line(0, i % 3, 8, i, 60)).collect();
        let mut src2 = RecordedFeed::new(lines2, 100);
        let mut driver2 = FeedDriver::new(&svc, cfg2);
        let stats2 = driver2.run(&mut src2).unwrap();
        assert!(stats2.forced_flushes > 0);
        assert_eq!(stats2.events_applied, 5, "no event was silently dropped");
    }
}
