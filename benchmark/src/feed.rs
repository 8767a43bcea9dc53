//! The write side: the recorded day handed to a `FeedDriver` one batch at
//! a time, each batch timed from the hand-off of its wire lines until a
//! fresh snapshot pin of every touched shard shows the new generation.

use std::time::Instant;

use pt_feed::{
    FeedDecoder, FeedDriver, FeedDriverConfig, FeedPoll, FeedSource, FeedStats, Quarantine,
    SourceError,
};
use pt_spcs::ShardedService;

use crate::gen::{Batch, Inputs, FEED_BLOCK};
use crate::trace::Tracer;

/// Hands the driver exactly one batch per poll, so one `tick` decodes one
/// batch's lines and — the batch holding exactly `batch_events` well-formed
/// events — flushes it.
struct BatchSource<'a> {
    batches: &'a [Batch],
    next: usize,
}

impl FeedSource for BatchSource<'_> {
    fn poll(&mut self) -> Result<FeedPoll, SourceError> {
        match self.batches.get(self.next) {
            Some(b) => {
                self.next += 1;
                Ok(FeedPoll::Batch(b.lines.clone()))
            }
            None => Ok(FeedPoll::End),
        }
    }
}

pub struct Writer<'a> {
    svc: &'a ShardedService,
    driver: FeedDriver<'a>,
    src: BatchSource<'a>,
    /// Seconds from hand-off to visible, per batch.
    pub busy_s: Vec<f64>,
    /// Batches that were applied but not visible, or not applied at all.
    pub failures: usize,
    /// Set on the traced pass only.
    tracer: Option<(Tracer, FeedDecoder)>,
}

impl<'a> Writer<'a> {
    pub fn new(svc: &'a ShardedService, inputs: &'a Inputs, trace_from: Option<Instant>) -> Self {
        let config = FeedDriverConfig {
            batch_events: inputs.sizes.events_per_batch,
            ..FeedDriverConfig::replay()
        };
        let roster = inputs.timetables.iter().map(|t| t.num_trains() as u32).collect();
        Writer {
            svc,
            driver: FeedDriver::new(svc, config),
            src: BatchSource { batches: &inputs.batches, next: 0 },
            busy_s: Vec::with_capacity(inputs.batches.len()),
            failures: 0,
            tracer: trace_from.map(|t0| (Tracer::new(t0), FeedDecoder::with_roster(roster))),
        }
    }

    /// Feeds the next batch; returns once it is visible.
    pub fn step(&mut self) {
        let i = self.src.next;
        let batches = self.src.batches;
        let batch = &batches[i];
        let generations = |svc: &ShardedService| -> Vec<u64> {
            batch
                .shards
                .iter()
                .map(|&sh| svc.network(sh).map(|snap| snap.generation()).unwrap_or(0))
                .collect()
        };
        let before = generations(self.svc);
        let (changed_before, apply_before) =
            (self.driver.stats().changed_batches, self.driver.stats().apply_ns);
        // The driver decodes inside `tick`; the traced pass decodes the same
        // lines once more beforehand to know how long that takes.
        let decode_ns = self.tracer.as_mut().map(|(tr, decoder)| {
            let t0 = tr.now();
            std::hint::black_box(decoder.decode_batch(&batch.lines, &mut Quarantine::default()));
            tr.now() - t0
        });

        let handoff = Instant::now();
        let spans = self.tracer.as_mut().map(|(tr, _)| {
            let root = tr.open("feed", None, i as u32);
            (root, tr.open("driver.tick", Some(root), i as u32))
        });
        let ticked = self.driver.tick(&mut self.src);
        if let (Some((tr, _)), Some((_, tick))) = (self.tracer.as_mut(), spans) {
            tr.close(tick);
            let (start, end) = (tr.spans[tick as usize].start_ns, tr.spans[tick as usize].end_ns);
            let decode = decode_ns.unwrap_or(0).min(end - start);
            tr.record("wire.decode", Some(tick), i as u32, start, start + decode);
            let apply = (self.driver.stats().apply_ns - apply_before) as u64;
            let from = end.saturating_sub(apply).max(start + decode);
            tr.record("shard.apply_feed", Some(tick), i as u32, from, end);
        }
        let pin = self
            .tracer
            .as_mut()
            .zip(spans)
            .map(|((tr, _), (root, _))| tr.open("network.pin", Some(root), i as u32));
        let after = generations(self.svc);
        self.busy_s.push(handoff.elapsed().as_secs_f64());
        if let (Some((tr, _)), Some((root, _)), Some(pin)) = (self.tracer.as_mut(), spans, pin) {
            tr.close(pin);
            tr.close(root);
        }

        let applied = ticked.is_ok() && self.driver.queued() == 0;
        let changed = self.driver.stats().changed_batches > changed_before;
        let visible = before.iter().zip(&after).any(|(b, a)| a > b);
        if !applied || (changed && !visible) {
            self.failures += 1;
        }
    }

    /// Batches handed over so far.
    pub fn fed(&self) -> usize {
        self.src.next
    }

    /// Stops feeding: whatever is still queued is drained.
    pub fn finish(mut self) -> (FeedStats, usize, Option<Tracer>) {
        if self.driver.drain().is_err() {
            self.failures += 1;
        }
        (self.driver.stats().clone(), self.failures, self.tracer.map(|(tr, _)| tr))
    }
}

/// Events applied per second of hand-off-to-visible time, per block of
/// [`FEED_BLOCK`] batches: `(events, seconds)`.
pub fn feed_blocks(busy_s: &[f64], events_per_batch: usize) -> Vec<(f64, f64)> {
    busy_s
        .chunks(FEED_BLOCK)
        .filter(|c| c.len() == FEED_BLOCK)
        .map(|c| ((c.len() * events_per_batch) as f64, c.iter().sum()))
        .collect()
}

/// Checks the day's accounting against what was generated: every
/// well-formed event applied, every malformed line quarantined under its
/// kind, nothing else quarantined. Returns the number of discrepancies.
pub fn audit(stats: &FeedStats, inputs: &Inputs, batches_fed: usize) -> usize {
    let fed = &inputs.batches[..batches_fed];
    let events: usize = fed.iter().map(|b| b.events.len()).sum();
    let mut wrong = usize::from(stats.events_applied as usize != events);
    if batches_fed == inputs.batches.len() {
        let injected: u64 = inputs.malformed.values().sum();
        wrong += usize::from(stats.quarantine.total != injected);
        wrong += inputs.malformed.iter().filter(|(k, &n)| stats.quarantine.count(k) != n).count();
    } else {
        let lines: usize = fed.iter().map(|b| b.lines.len()).sum();
        wrong += usize::from(stats.quarantine.total as usize != lines - events);
    }
    wrong
}
