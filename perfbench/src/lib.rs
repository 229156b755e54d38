//! Wall-clock benchmark for the HADAS search and fleet planes.
//!
//! Three workloads drive the public library API from one process:
//! `search-paper`, `search-sweep` and `fleet-drift`. An untraced run
//! reports the end-to-end metrics; a traced run measures each layer from
//! outside, through timed calls into its public functions, a timing
//! `CostModel` behind `Hadas::with_cost_model`, and the counts the
//! outcomes expose. See `METRICS.md` for the catalogue.

pub mod cost;
pub mod heap;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// Every binary and test of this crate counts its heap.
#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;
