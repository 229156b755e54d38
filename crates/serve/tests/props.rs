//! Property-based tests for the deadline-aware batcher — the
//! size-or-slack closing rule never lets batch-formation waiting alone
//! blow the earliest admitted deadline, dispatch is FIFO within each
//! SLO class, and edge cases (empty queue, oversize backlog) behave.

use hadas_serve::{Batcher, Request, SloClass};
use proptest::prelude::*;

/// Builds a time-ordered request stream from (gap, bulk?, difficulty)
/// triples with the fixed per-class deadline budgets the serving config
/// uses (interactive tight, bulk slack).
fn stream(specs: &[(f64, bool, f64)]) -> Vec<Request> {
    let mut t = 0.0;
    specs
        .iter()
        .enumerate()
        .map(|(id, &(gap, bulk, difficulty))| {
            t += gap;
            let (class, budget) =
                if bulk { (SloClass::Bulk, 1.2) } else { (SloClass::Interactive, 0.12) };
            Request { id, time_s: t, difficulty, class, deadline_s: t + budget }
        })
        .collect()
}

fn specs_strategy(max_len: usize) -> impl Strategy<Value = Vec<(f64, bool, f64)>> {
    proptest::collection::vec((0.0f64..0.05, any::<bool>(), 0.0f64..1.0), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// If the batcher decides to *wait* for the next arrival, starting at
    /// that arrival and serving the estimated batch still meets the
    /// earliest queued deadline — waiting never sacrifices an admitted
    /// request by itself.
    #[test]
    fn waiting_never_blows_the_earliest_deadline(
        specs in specs_strategy(24),
        now in 0.0f64..0.5,
        est in 0.0f64..0.3,
        gap in 0.0f64..0.5,
    ) {
        let reqs = stream(&specs);
        let mut b = Batcher::new(reqs.len() + 1); // never closes on size here
        for r in &reqs {
            b.push(*r);
        }
        let next = now + gap;
        if !b.should_dispatch(now, est, Some(next)) {
            let deadline = b.earliest_deadline().expect("queue is non-empty");
            prop_assert!(
                now.max(next) + est <= deadline + 1e-9,
                "waited past feasibility: start {} + est {est} > deadline {deadline}",
                now.max(next),
            );
        }
    }

    /// Dispatch order is FIFO within each SLO class, every batch respects
    /// `batch_max`, and draining the queue loses no request.
    #[test]
    fn batches_are_fifo_within_class_and_bounded(
        specs in specs_strategy(32),
        batch_max in 1usize..9,
    ) {
        let reqs = stream(&specs);
        let mut b = Batcher::new(batch_max);
        for r in &reqs {
            b.push(*r);
        }
        let mut dispatched: Vec<Request> = Vec::new();
        while !b.is_empty() {
            let planned: Vec<usize> = b.plan().iter().map(|r| r.id).collect();
            let batch = b.take_batch();
            prop_assert!(!batch.is_empty(), "non-empty queue must yield a batch");
            prop_assert!(batch.len() <= batch_max);
            let taken: Vec<usize> = batch.iter().map(|r| r.id).collect();
            prop_assert_eq!(planned, taken);
            dispatched.extend(batch);
        }
        prop_assert_eq!(dispatched.len(), reqs.len());
        for class in [SloClass::Interactive, SloClass::Bulk] {
            let order: Vec<usize> =
                dispatched.iter().filter(|r| r.class == class).map(|r| r.id).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(order, sorted);
        }
    }

    /// A full queue always closes the batch, whatever the slack.
    #[test]
    fn full_queues_always_dispatch(specs in specs_strategy(16)) {
        let reqs = stream(&specs);
        let mut b = Batcher::new(reqs.len().max(1));
        for r in &reqs {
            b.push(*r);
        }
        prop_assert!(b.should_dispatch(0.0, 0.0, Some(f64::MAX)), "size rule must fire");
    }
}

#[test]
fn empty_batcher_edge_cases() {
    let mut b = Batcher::new(4);
    assert!(b.is_empty());
    assert_eq!(b.len(), 0);
    assert_eq!(b.earliest_deadline(), None);
    assert!(b.plan().is_empty());
    assert!(b.take_batch().is_empty());
    assert!(!b.should_dispatch(0.0, 1.0, None), "nothing queued, nothing to dispatch");
    assert!(!b.should_dispatch(0.0, 1.0, Some(0.5)));
}

#[test]
fn oversize_backlog_drains_in_bounded_batches() {
    let specs: Vec<(f64, bool, f64)> = (0..100).map(|i| (0.001, i % 3 == 0, 0.5)).collect();
    let mut b = Batcher::new(8);
    for r in stream(&specs) {
        b.push(r);
    }
    let mut total = 0;
    let mut batches = 0;
    while !b.is_empty() {
        let batch = b.take_batch();
        assert!(batch.len() <= 8);
        total += batch.len();
        batches += 1;
    }
    assert_eq!(total, 100);
    assert_eq!(batches, 13, "ceil(100 / 8) batches");
}
