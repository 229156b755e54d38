//! # hadas-cli
//!
//! Command-line interface to the HADAS reproduction: device inspection,
//! baseline tables, joint and inner searches, feasibility audits, proxy
//! fits, supernet training, and the serve and fleet planes, from a
//! shell. The argument grammar is one declarative flag table per
//! subcommand (no external parser): [`Command::parse`] and [`usage`]
//! are both generated from it, so the grammar is unit-testable without
//! a process boundary and the help text cannot drift from it.
//!
//! ```text
//! hadas devices
//! hadas baselines --target tx2-gpu
//! hadas search    --target agx-gpu --scale mid --seed 7 [--json out.json]
//! hadas train     --epochs 4 --seed 7
//! hadas ioe       --target tx2-gpu --baseline a3 --seed 1
//! hadas check     [--target tx2-gpu]
//! hadas proxy     --target tx2-gpu --samples 3000
//! hadas serve     --target tx2-gpu --rps 150 --duration 10
//! hadas fleet     --devices mixed:8 --scenario composite --reconfigure on
//! hadas <command> --help
//! ```

mod args;
mod run;

pub use args::{usage, Command, ParseCliError, Scale};
pub use run::execute;
