//! Property-based tests for the supervised parallel executor
//! (`hadas::executor`, shared with the serve pool and the
//! OOE/IOE search plane): for *arbitrary* job sets, fault rates, retry
//! budgets, and worker counts, the seq-tagged reduction must equal the
//! in-order sequential fold bit-for-bit, and the recovery choreography
//! (respawn, re-dispatch, retry, hedge) must never duplicate or drop a
//! sequence slot.

use hadas::executor::{run_supervised, ChaosPlan, ExecTelemetry, JobSpec};
use hadas::{CircuitBreaker, RetryPolicy};
use hadas_runtime::{FaultConfig, FaultInjector};
use proptest::prelude::*;

/// The pure per-job payload: any deterministic function works; this one
/// mixes integer and float output so a lost or duplicated slot cannot
/// cancel out.
fn payload(x: &u64) -> (u64, f64) {
    (x.wrapping_mul(0x9E37_79B9_7F4A_7C15), (*x as f64).sqrt() * 3.0 + 1.0)
}

/// An arbitrary chaos substrate: job values, fault rates, a retry
/// budget, and a fault seed.
#[derive(Debug, Clone)]
struct Substrate {
    jobs: Vec<u64>,
    transient: f64,
    timeout: f64,
    crash: f64,
    attempts: u32,
    seed: u64,
}

fn substrate() -> impl Strategy<Value = Substrate> {
    (
        proptest::collection::vec(any::<u64>(), 0..60),
        0.0f64..0.5,
        0.0f64..0.3,
        0.0f64..0.3,
        1u32..6,
        any::<u64>(),
    )
        .prop_map(|(jobs, transient, timeout, crash, attempts, seed)| Substrate {
            jobs,
            transient,
            timeout,
            crash,
            attempts,
            seed,
        })
}

/// Resolves the substrate into the deterministic recovery script the
/// supervisor replays (content-keyed, so independent of worker count).
fn plan_of(s: &Substrate) -> ChaosPlan {
    let injector = FaultInjector::new(FaultConfig {
        transient_rate: s.transient,
        timeout_rate: s.timeout,
        crash_rate: s.crash,
        ..FaultConfig::worker_chaos(s.seed)
    })
    .expect("generated rates stay within the validated range");
    let retry = RetryPolicy { max_attempts: s.attempts, ..RetryPolicy::default() };
    let specs: Vec<JobSpec> = s
        .jobs
        .iter()
        .enumerate()
        .map(|(i, &x)| JobSpec { key: x ^ (i as u64) << 32, est_ms: 2.0, weight: 1 })
        .collect();
    ChaosPlan::build(&injector, &retry, CircuitBreaker::new(8, 4), 3.0, &specs)
}

/// The reference semantics: a plain in-order fold over the schedule,
/// consulting only the plan's dead-letter verdicts.
fn sequential_fold(jobs: &[u64], plan: &ChaosPlan) -> Vec<Option<(u64, f64)>> {
    jobs.iter()
        .enumerate()
        .map(|(i, x)| if plan.dead[i] { None } else { Some(payload(x)) })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The seq-tagged reduction equals the in-order sequential fold
    /// bit-for-bit, for every worker count, under arbitrary crash/
    /// retry/hedge schedules.
    #[test]
    fn supervised_reduction_equals_the_in_order_fold(s in substrate()) {
        let plan = plan_of(&s);
        let expected = sequential_fold(&s.jobs, &plan);
        for workers in [1usize, 2, 3, 5, 8] {
            let (slots, _) = run_supervised(&s.jobs, workers, payload, Some(&plan))
                .expect("supervision never errors on scripted chaos");
            prop_assert_eq!(&slots, &expected);
            for (slot, exp) in slots.iter().zip(&expected) {
                if let (Some((_, a)), Some((_, b))) = (slot, exp) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Respawn/re-dispatch never duplicates or drops a sequence slot:
    /// a slot lands iff its chain is not dead-lettered, and the
    /// telemetry reproduces the plan's precomputed stats exactly at
    /// every worker count.
    #[test]
    fn respawn_never_duplicates_or_drops_a_seq(s in substrate()) {
        let plan = plan_of(&s);
        for workers in [1usize, 2, 4, 7] {
            let (slots, tel) = run_supervised(&s.jobs, workers, payload, Some(&plan))
                .expect("supervision never errors on scripted chaos");
            // Every seq owns exactly one slot, and a slot lands iff its
            // chain survives — no duplicates, no drops, at any width.
            prop_assert_eq!(slots.len(), s.jobs.len());
            for (i, slot) in slots.iter().enumerate() {
                prop_assert!(
                    slot.is_none() == plan.dead[i],
                    "slot {} landed={} but dead={} (workers = {})",
                    i,
                    slot.is_some(),
                    plan.dead[i],
                    workers
                );
            }
            prop_assert_eq!(tel, plan.stats);
        }
    }

    /// Without a plan the executor is a plain parallel map: all slots
    /// land, in schedule order, with silent telemetry.
    #[test]
    fn a_clean_run_is_a_plain_map(jobs in proptest::collection::vec(any::<u64>(), 0..60)) {
        let expected: Vec<Option<(u64, f64)>> = jobs.iter().map(|x| Some(payload(x))).collect();
        for workers in [1usize, 3, 6] {
            let (slots, tel) = run_supervised(&jobs, workers, payload, None)
                .expect("clean runs never error");
            prop_assert_eq!(&slots, &expected);
            prop_assert_eq!(tel, ExecTelemetry::default());
        }
    }
}
