use crate::{Request, SloClass};
use std::collections::VecDeque;

/// A deadline-aware dynamic batcher over two SLO-class FIFO queues.
///
/// Requests are admitted in arrival order and leave in batches formed by
/// earliest-deadline-first *across* classes while staying strictly FIFO
/// *within* each class (the per-class deadline budget is fixed, so each
/// queue's head always carries its class's earliest deadline).
///
/// A batch closes ("size-or-slack") when it is full, when no further
/// arrival can join it, or when waiting for the next arrival would push
/// the earliest queued deadline past the estimated service completion —
/// the estimate being early-exit aware because the engine prices each
/// queued request through the current mode's exit thresholds.
#[derive(Debug, Clone)]
pub struct Batcher {
    interactive: VecDeque<Request>,
    bulk: VecDeque<Request>,
    batch_max: usize,
}

impl Batcher {
    /// An empty batcher closing batches at `batch_max` requests
    /// (a zero maximum is treated as 1).
    pub fn new(batch_max: usize) -> Self {
        Batcher { interactive: VecDeque::new(), bulk: VecDeque::new(), batch_max: batch_max.max(1) }
    }

    /// The configured maximum batch size.
    pub fn batch_max(&self) -> usize {
        self.batch_max
    }

    /// Copies both class queues in FIFO order — the batcher half of an
    /// exported `SessionState`.
    pub fn queues(&self) -> (Vec<Request>, Vec<Request>) {
        (self.interactive.iter().copied().collect(), self.bulk.iter().copied().collect())
    }

    /// Rebuilds a batcher from exported queues (each in FIFO order) —
    /// the inverse of [`Batcher::queues`].
    pub fn from_queues(batch_max: usize, interactive: Vec<Request>, bulk: Vec<Request>) -> Self {
        Batcher { interactive: interactive.into(), bulk: bulk.into(), batch_max: batch_max.max(1) }
    }

    /// Enqueues an admitted request. Callers must push in arrival order —
    /// the EDF head property relies on it.
    pub fn push(&mut self, request: Request) {
        match request.class {
            SloClass::Interactive => self.interactive.push_back(request),
            SloClass::Bulk => self.bulk.push_back(request),
        }
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.interactive.len() + self.bulk.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.interactive.is_empty() && self.bulk.is_empty()
    }

    /// The earliest deadline among all queued requests, if any.
    pub fn earliest_deadline(&self) -> Option<f64> {
        self.interactive.iter().chain(self.bulk.iter()).map(|r| r.deadline_s).min_by(f64::total_cmp)
    }

    /// The requests the next [`Batcher::take_batch`] would dispatch, in
    /// dispatch order, without mutating the queue.
    pub fn plan(&self) -> Vec<&Request> {
        let mut out = Vec::with_capacity(self.batch_max.min(self.len()));
        let (mut i, mut b) = (0usize, 0usize);
        while out.len() < self.batch_max {
            match (self.interactive.get(i), self.bulk.get(b)) {
                (None, None) => break,
                (Some(r), None) => {
                    out.push(r);
                    i += 1;
                }
                (None, Some(r)) => {
                    out.push(r);
                    b += 1;
                }
                (Some(x), Some(y)) => {
                    // EDF across classes; ties go to the tighter class.
                    if x.deadline_s <= y.deadline_s {
                        out.push(x);
                        i += 1;
                    } else {
                        out.push(y);
                        b += 1;
                    }
                }
            }
        }
        out
    }

    /// Pops the next batch (up to `batch_max` requests) in the order
    /// [`Batcher::plan`] reported.
    pub fn take_batch(&mut self) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.batch_max.min(self.len()));
        while out.len() < self.batch_max {
            let take_interactive = match (self.interactive.front(), self.bulk.front()) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(x), Some(y)) => x.deadline_s <= y.deadline_s,
            };
            let popped =
                if take_interactive { self.interactive.pop_front() } else { self.bulk.pop_front() };
            match popped {
                Some(r) => out.push(r),
                None => break,
            }
        }
        out
    }

    /// The size-or-slack closing rule. `now` is the earliest instant the
    /// batch could start, `est_service_s` the estimated batch service time
    /// (overhead included), `next_arrival` the next request's arrival time
    /// if any. Returns `true` when the batch must dispatch now:
    ///
    /// * the queue is full (size), or
    /// * no further arrival exists to wait for, or
    /// * waiting for the next arrival would start the batch at
    ///   `max(now, next_arrival)` and miss the earliest queued deadline
    ///   (slack).
    ///
    /// An empty queue never dispatches.
    pub fn should_dispatch(&self, now: f64, est_service_s: f64, next_arrival: Option<f64>) -> bool {
        if self.is_empty() {
            return false;
        }
        if self.len() >= self.batch_max {
            return true;
        }
        let Some(next) = next_arrival else {
            return true;
        };
        let Some(deadline) = self.earliest_deadline() else {
            return true;
        };
        now.max(next) + est_service_s > deadline + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, t: f64, class: SloClass, budget: f64) -> Request {
        Request { id, time_s: t, difficulty: 0.5, class, deadline_s: t + budget }
    }

    #[test]
    fn full_queue_dispatches_and_partial_queue_waits_with_slack() {
        let mut b = Batcher::new(2);
        assert!(!b.should_dispatch(0.0, 0.01, Some(0.1)), "empty never dispatches");
        b.push(req(0, 0.0, SloClass::Interactive, 0.5));
        // Waiting until t=0.1 then serving 0.01 s finishes at 0.11 < 0.5.
        assert!(!b.should_dispatch(0.0, 0.01, Some(0.1)));
        // No future arrival: flush.
        assert!(b.should_dispatch(0.0, 0.01, None));
        // Waiting would blow the deadline.
        assert!(b.should_dispatch(0.0, 0.2, Some(0.4)));
        b.push(req(1, 0.05, SloClass::Interactive, 0.5));
        assert!(b.should_dispatch(0.05, 0.01, Some(10.0)), "full batch closes on size");
    }

    #[test]
    fn edf_across_classes_fifo_within() {
        let mut b = Batcher::new(4);
        b.push(req(0, 0.00, SloClass::Bulk, 1.0));
        b.push(req(1, 0.01, SloClass::Interactive, 0.1));
        b.push(req(2, 0.02, SloClass::Interactive, 0.1));
        b.push(req(3, 0.03, SloClass::Bulk, 1.0));
        let ids: Vec<usize> = b.plan().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 0, 3], "interactive deadlines lead, bulk keeps FIFO");
        let taken: Vec<usize> = b.take_batch().iter().map(|r| r.id).collect();
        assert_eq!(taken, ids, "take order matches the plan");
        assert!(b.is_empty());
    }

    #[test]
    fn take_batch_respects_batch_max() {
        let mut b = Batcher::new(3);
        for i in 0..5 {
            b.push(req(i, i as f64 * 0.01, SloClass::Interactive, 0.2));
        }
        assert_eq!(b.take_batch().len(), 3);
        assert_eq!(b.len(), 2);
        assert_eq!(b.take_batch().len(), 2);
        assert!(b.take_batch().is_empty(), "empty queue yields an empty batch");
    }

    #[test]
    fn queue_snapshot_round_trips_bit_identically() {
        let mut b = Batcher::new(3);
        for i in 0..7 {
            let class = if i % 2 == 0 { SloClass::Interactive } else { SloClass::Bulk };
            b.push(req(i, i as f64 * 0.01, class, 0.1 + i as f64));
        }
        let (interactive, bulk) = b.queues();
        let restored = Batcher::from_queues(b.batch_max(), interactive, bulk);
        assert_eq!(restored.len(), b.len());
        assert_eq!(restored.queues(), b.queues());
        let mut a = b.clone();
        let mut r = restored;
        while !a.is_empty() {
            assert_eq!(a.take_batch(), r.take_batch(), "restored batches match the original");
        }
        assert!(r.is_empty());
    }

    #[test]
    fn earliest_deadline_spans_both_classes() {
        let mut b = Batcher::new(8);
        assert_eq!(b.earliest_deadline(), None);
        b.push(req(0, 0.0, SloClass::Bulk, 2.0));
        b.push(req(1, 0.1, SloClass::Interactive, 0.1));
        let d = b.earliest_deadline().expect("two queued requests have a deadline");
        assert!((d - 0.2).abs() < 1e-12);
    }
}
