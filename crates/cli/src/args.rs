//! The argument grammar. Each subcommand is one row of [`COMMANDS`]: a
//! flag table (name, value metavar, default, help line) and a builder.
//! Parsing, defaults, the allowed-flag check and the help text are all
//! generated from that table.

use hadas::Scale;
use hadas_hw::HwTarget;
use hadas_runtime::{GrayFaultKind, SCENARIO_NAMES};
use hadas_serve::GovernorKind;
use std::error::Error;
use std::fmt;
use Fallback::{Absent, Required, Value};

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError(pub String);

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseCliError {}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the four hardware targets and their DVFS ladders.
    Devices,
    /// Print the a0..a6 static table on one target.
    Baselines {
        /// Hardware target.
        target: HwTarget,
    },
    /// Run the full bi-level search.
    Search {
        /// Hardware target.
        target: HwTarget,
        /// Budget preset.
        scale: Scale,
        /// Search seed.
        seed: u64,
        /// Optional JSON output path for the Pareto set.
        json: Option<String>,
        /// Write a resumable checkpoint here at every generation
        /// boundary (e.g. `results/checkpoint.json`).
        checkpoint: Option<String>,
        /// Resume from the checkpoint at this path (and keep
        /// checkpointing to it).
        resume: Option<String>,
        /// Stop after this many generations *this call* (the chaos
        /// workflow's deterministic kill point) and emit a partial front.
        max_generations: Option<usize>,
        /// Inject substrate faults into candidate scoring with this
        /// fault seed (transient failures, timeouts; retried with
        /// backoff, degraded on exhaustion).
        faults: Option<u64>,
        /// Inject deterministic data-plane chaos into candidate
        /// evaluations with this seed: a fixed fraction of fitness
        /// measurements comes back NaN and must be quarantined to the
        /// finite worst-case penalty without perturbing the rest of
        /// the front.
        data_chaos: Option<u64>,
        /// Worker lanes for the supervised evaluation phases (static
        /// population evals and nested IOE runs). `0` auto-sizes to
        /// the host; any value yields a byte-identical front.
        workers: usize,
        /// Inject execution-plane chaos (worker crashes, dispatch
        /// failures, stragglers) into the supervised executor with
        /// this seed; crashed lanes respawn and lost evaluations
        /// re-dispatch so the healed front matches the fault-free one.
        chaos: Option<u64>,
    },
    /// Train the weight-sharing micro-supernet under the divergence
    /// guard (numeric sentinels, epoch checkpoint/rollback, poisoned-
    /// sample quarantine).
    Train {
        /// Training epochs.
        epochs: usize,
        /// Batch size.
        batch: usize,
        /// Initial learning rate.
        lr: f32,
        /// Seed of the dataset, the weights, and the subnet sampler.
        seed: u64,
        /// Corrupt the train split with the seeded chaos injector
        /// (label flips, NaN/extreme pixels, truncated reads) before
        /// training; per-sample validation must quarantine the
        /// detectable poison.
        data_chaos: Option<u64>,
        /// Write a resumable training checkpoint here at every epoch
        /// boundary.
        checkpoint: Option<String>,
        /// Resume from the checkpoint at `--train-checkpoint` if it
        /// exists (and keep checkpointing to it).
        resume: bool,
        /// Stop after this many epochs *this call* (the chaos
        /// workflow's deterministic kill point).
        max_epochs: Option<usize>,
        /// Optional JSON output path for the train report + telemetry.
        json: Option<String>,
    },
    /// Run the inner engine on one AttentiveNAS baseline.
    Ioe {
        /// Hardware target.
        target: HwTarget,
        /// Baseline index 0..=6 (a0..a6).
        baseline: usize,
        /// Budget preset.
        scale: Scale,
        /// Search seed.
        seed: u64,
    },
    /// Audit design-space feasibility invariants (genome bounds, exit
    /// placements, DVFS monotonicity, proxy sanity) via `hadas-lint`.
    Check {
        /// Limit the hardware sweep to one target (all four if `None`).
        target: Option<HwTarget>,
    },
    /// Fit and validate a proxy cost model.
    Proxy {
        /// Hardware target.
        target: HwTarget,
        /// Device measurements to fit on.
        samples: usize,
    },
    /// Deploy a searched mode ladder behind the open-loop serving engine.
    Serve {
        /// Hardware target.
        target: HwTarget,
        /// Budget preset for the mode-producing search.
        scale: Scale,
        /// Seed of the search, arrival stream, and SLO classes.
        seed: u64,
        /// Mean offered load (requests/s).
        rps: f64,
        /// Arrival-stream length (seconds).
        duration_s: f64,
        /// Worker lanes in the pool.
        workers: usize,
        /// Maximum requests per batch.
        batch_max: usize,
        /// Interactive-class deadline (ms).
        slo_ms: f64,
        /// DVFS governor driving mode selection.
        governor: hadas_serve::GovernorKind,
        /// Inject substrate fault episodes with this fault seed.
        faults: Option<u64>,
        /// Inject execution-plane worker chaos (crashes, stragglers,
        /// transient batch failures) with this fault seed; the
        /// supervised pool must heal back to the fault-free report.
        chaos: Option<u64>,
        /// Enable the brownout degradation ladder (shed bulk → force
        /// early exits → reject admissions) under overload.
        brownout: bool,
        /// Straggler-detection multiple of the batch service estimate
        /// before a hedge is issued.
        hedge_factor: f64,
        /// Optional JSON output path for the full report.
        json: Option<String>,
    },
    /// Serve a heterogeneous device fleet under the global router and
    /// the unit supervisor.
    Fleet {
        /// One hardware target per device unit, from `--devices`
        /// (e.g. `agx-gpu:2,tx2-gpu:4` or `mixed:16`).
        devices: Vec<HwTarget>,
        /// Budget preset for the per-target mode-producing searches.
        scale: Scale,
        /// Seed of the searches, arrival stream, and SLO classes.
        seed: u64,
        /// Simulated users (arrival-stream volume; duration = users/rps).
        users: usize,
        /// Fleet-wide mean offered load (requests/s).
        rps: f64,
        /// Fleet supervisor worker lanes; any count yields a
        /// byte-identical report.
        workers: usize,
        /// Interactive-class deadline (ms).
        slo_ms: f64,
        /// Pin every device to one governor (`None` rotates the
        /// replica governor ladder).
        governor: Option<hadas_serve::GovernorKind>,
        /// Router cost weight: seconds of finish-time penalty per
        /// estimated joule.
        energy_weight: f64,
        /// Inject per-device substrate fault episodes with this seed.
        faults: Option<u64>,
        /// Inject unit-level chaos (device crashes, stragglers) with
        /// this seed; supervision must heal back to the fault-free
        /// report whenever nothing dead-letters.
        chaos: Option<u64>,
        /// Workload-drift scenario name driving the arrival stream and
        /// every device's thermal substrate (`None` = calm workload;
        /// see [`hadas_runtime::SCENARIO_NAMES`]).
        scenario: Option<String>,
        /// Run the live reconfiguration controller: epoch-wise
        /// operating-point swaps along each device's Pareto front,
        /// zero-drop because queued requests carry over each swap.
        reconfigure: bool,
        /// Inject gray telemetry failures (frozen/corrupt/dropped
        /// health samples, silent slowdowns, flapping) with this seed.
        gray_faults: Option<u64>,
        /// Gray-fault kind to inject (see
        /// [`hadas_runtime::GrayFaultKind`]; `mix` assigns per device).
        gray_kind: hadas_runtime::GrayFaultKind,
        /// Run the online gray-failure detector: telemetry sanitation,
        /// per-device health state machines, quarantine-aware routing.
        detection: bool,
        /// Optional JSON output path for the full fleet report.
        json: Option<String>,
    },
    /// Print usage.
    Help,
}

/// How a flag's value is shown in help.
#[derive(Clone, Copy)]
enum Meta {
    /// A placeholder such as `N` or `PATH`.
    Text(&'static str),
    /// A closed set of names, read from the crate that owns them.
    OneOf(fn() -> Vec<&'static str>),
}

impl fmt::Display for Meta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Meta::Text(text) => f.write_str(text),
            Meta::OneOf(names) => f.write_str(&names().join("|")),
        }
    }
}

/// What a flag reads as when it is absent.
#[derive(Clone, Copy)]
enum Fallback {
    /// The command cannot run without it.
    Required,
    /// No value (the field is an `Option`, or the builder decides).
    Absent,
    /// This value, parsed exactly like a given one.
    Value(&'static str),
}

/// One row of a subcommand's flag table.
struct Flag {
    name: &'static str,
    meta: Meta,
    fallback: Fallback,
    help: &'static str,
}

const fn flag(name: &'static str, meta: Meta, fallback: Fallback, help: &'static str) -> Flag {
    Flag { name, meta, fallback, help }
}

/// Help column where flag descriptions start.
const HELP_COL: usize = 30;

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head = format!("--{} {}", self.name, self.meta);
        if head.len() >= HELP_COL {
            writeln!(f, "    {head}")?;
            write!(f, "    {:HELP_COL$}{}", "", self.help)?;
        } else {
            write!(f, "    {head:HELP_COL$}{}", self.help)?;
        }
        match self.fallback {
            Required => write!(f, " (required)"),
            Absent => Ok(()),
            Value(v) => write!(f, " (default {v})"),
        }
    }
}

const NUM: Meta = Meta::Text("N");
const REAL: Meta = Meta::Text("F");
const SEED: Meta = Meta::Text("SEED");
const PATH: Meta = Meta::Text("PATH");
const ON_OFF: Meta = Meta::OneOf(|| SWITCH.iter().map(|(name, _)| *name).collect());
const SCALES: Meta = Meta::OneOf(|| Scale::ALL.into_iter().map(Scale::name).collect());
const TARGETS: Meta = Meta::OneOf(|| HwTarget::ALL.iter().map(HwTarget::cli_name).collect());
const GOVERNORS: Meta = Meta::OneOf(|| GovernorKind::ALL.iter().map(GovernorKind::name).collect());
const GRAY_KINDS: Meta = Meta::OneOf(|| {
    GrayFaultKind::CONCRETE
        .into_iter()
        .chain([GrayFaultKind::Mix])
        .map(GrayFaultKind::name)
        .collect()
});
const SCENARIOS: Meta = Meta::OneOf(|| ["none"].into_iter().chain(SCENARIO_NAMES).collect());

const SWITCH: [(&str, bool); 2] = [("on", true), ("off", false)];

const TARGET: Flag = flag("target", TARGETS, Required, "hardware target");
const SCALE: Flag = flag("scale", SCALES, Value("quick"), "search budget preset");
const RUN_SEED: Flag = flag("seed", NUM, Value("7"), "seed of every random stream");
const JSON: Flag = flag("json", PATH, Absent, "write the full result as JSON");

/// One subcommand: its flag table and how a parsed table becomes a
/// [`Command`].
struct Spec {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    build: fn(&Flags<'_>) -> Result<Command, ParseCliError>,
}

impl Spec {
    fn flag(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == name)
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  hadas {} [FLAGS]\n    {}", self.name, self.about)?;
        for flag in self.flags {
            writeln!(f, "{flag}")?;
        }
        writeln!(f, "    {:HELP_COL$}print this help", "-h, --help")
    }
}

static COMMANDS: [Spec; 9] = [
    Spec {
        name: "devices",
        about: "list the four hardware targets and their DVFS ladders",
        flags: &[],
        build: |_| Ok(Command::Devices),
    },
    Spec {
        name: "baselines",
        about: "print the a0..a6 AttentiveNAS static table on one target",
        flags: &[TARGET],
        build: |a| Ok(Command::Baselines { target: a.get("target")? }),
    },
    Spec {
        name: "search",
        about: "run the full bi-level (OOE backbone x IOE exits/DVFS) search",
        flags: &[
            TARGET,
            SCALE,
            RUN_SEED,
            JSON,
            flag("checkpoint", PATH, Absent, "checkpoint the search every generation"),
            flag("resume", PATH, Absent, "resume a checkpoint (same target/scale/seed)"),
            flag("max-generations", NUM, Absent, "stop after N generations"),
            flag("faults", SEED, Absent, "inject transient faults into evaluations"),
            flag("data-chaos", SEED, Absent, "poison a fixed fraction of fitnesses (NaN)"),
            flag("workers", NUM, Value("0"), "evaluation lanes; 0 sizes to the host"),
            flag("chaos", SEED, Absent, "inject worker crashes and stragglers"),
        ],
        build: |a| {
            Ok(Command::Search {
                target: a.get("target")?,
                scale: a.get("scale")?,
                seed: a.get("seed")?,
                json: a.opt("json")?,
                checkpoint: a.opt("checkpoint")?,
                resume: a.opt("resume")?,
                max_generations: a.opt("max-generations")?,
                faults: a.opt("faults")?,
                data_chaos: a.opt("data-chaos")?,
                workers: a.get("workers")?,
                chaos: a.opt("chaos")?,
            })
        },
    },
    Spec {
        name: "train",
        about: "train the weight-sharing micro-supernet under the divergence guard",
        flags: &[
            flag("epochs", NUM, Value("4"), "training epochs"),
            flag("batch", NUM, Value("16"), "batch size"),
            flag("lr", REAL, Value("0.05"), "initial learning rate"),
            RUN_SEED,
            flag("data-chaos", SEED, Absent, "corrupt the train split before training"),
            flag("train-checkpoint", PATH, Absent, "checkpoint training every epoch"),
            flag("resume-train", ON_OFF, Value("off"), "resume from --train-checkpoint"),
            flag("max-epochs", NUM, Absent, "stop after N epochs this call"),
            JSON,
        ],
        build: |a| {
            let checkpoint = a.opt("train-checkpoint")?;
            let resume = a.get("resume-train")?;
            if resume && checkpoint.is_none() {
                return Err(ParseCliError(
                    "--resume-train on requires --train-checkpoint PATH".into(),
                ));
            }
            Ok(Command::Train {
                epochs: a.get("epochs")?,
                batch: a.get("batch")?,
                lr: a.get("lr")?,
                seed: a.get("seed")?,
                data_chaos: a.opt("data-chaos")?,
                checkpoint,
                resume,
                max_epochs: a.opt("max-epochs")?,
                json: a.opt("json")?,
            })
        },
    },
    Spec {
        name: "ioe",
        about: "run the inner engine on one AttentiveNAS baseline",
        flags: &[
            TARGET,
            flag("baseline", Meta::Text("a0..a6"), Value("a0"), "fixed backbone"),
            SCALE,
            RUN_SEED,
        ],
        build: |a| {
            Ok(Command::Ioe {
                target: a.get("target")?,
                baseline: a.get_with("baseline", parse_baseline)?,
                scale: a.get("scale")?,
                seed: a.get("seed")?,
            })
        },
    },
    Spec {
        name: "check",
        about: "audit design-space feasibility invariants via hadas-lint",
        flags: &[flag("target", TARGETS, Absent, "sweep one target (default all four)")],
        build: |a| Ok(Command::Check { target: a.opt("target")? }),
    },
    Spec {
        name: "proxy",
        about: "fit and validate a proxy cost model",
        flags: &[TARGET, flag("samples", NUM, Value("3000"), "measurements to fit on")],
        build: |a| Ok(Command::Proxy { target: a.get("target")?, samples: a.get("samples")? }),
    },
    Spec {
        name: "serve",
        about: "search a mode ladder, then serve a seeded open-loop arrival stream",
        flags: &[
            TARGET,
            SCALE,
            RUN_SEED,
            flag("rps", REAL, Value("150"), "mean offered load (requests/s)"),
            flag("duration", REAL, Value("10"), "arrival-stream length (s)"),
            flag("workers", NUM, Value("2"), "worker lanes in the pool"),
            flag("batch-max", NUM, Value("8"), "maximum requests per batch"),
            flag("slo-ms", REAL, Value("120"), "interactive-class deadline (ms)"),
            flag("governor", GOVERNORS, Value("queue"), "DVFS governor"),
            flag("faults", SEED, Absent, "inject substrate fault episodes"),
            flag("chaos", SEED, Absent, "inject worker crashes and stragglers"),
            flag("brownout", ON_OFF, Value("off"), "overload degradation ladder"),
            flag("hedge-factor", REAL, Value("3.0"), "hedge a batch F x past its estimate"),
            JSON,
        ],
        build: |a| {
            Ok(Command::Serve {
                target: a.get("target")?,
                scale: a.get("scale")?,
                seed: a.get("seed")?,
                rps: a.get("rps")?,
                duration_s: a.get("duration")?,
                workers: a.get("workers")?,
                batch_max: a.get("batch-max")?,
                slo_ms: a.get("slo-ms")?,
                governor: a.get("governor")?,
                faults: a.opt("faults")?,
                chaos: a.opt("chaos")?,
                brownout: a.get("brownout")?,
                hedge_factor: a.get("hedge-factor")?,
                json: a.opt("json")?,
            })
        },
    },
    Spec {
        name: "fleet",
        about: "serve a heterogeneous device fleet under the global router",
        flags: &[
            flag("devices", Meta::Text("SPEC"), Value("mixed:8"), "agx-gpu:2,tx2-gpu:4 or mixed:N"),
            SCALE,
            RUN_SEED,
            flag("users", NUM, Value("4000"), "simulated users (stream = users/rps s)"),
            flag("rps", REAL, Value("400"), "fleet-wide mean offered load"),
            flag("workers", NUM, Value("1"), "supervisor lanes (report is identical)"),
            flag("slo-ms", REAL, Value("120"), "interactive-class deadline (ms)"),
            flag("governor", GOVERNORS, Absent, "pin one governor (default: rotate)"),
            flag("energy-weight", REAL, Value("0.02"), "router seconds per estimated joule"),
            flag("faults", SEED, Absent, "per-device substrate fault episodes"),
            flag("chaos", SEED, Absent, "unit crashes and stragglers, healed"),
            flag("scenario", SCENARIOS, Value("none"), "workload drift over the run"),
            flag("reconfigure", ON_OFF, Value("off"), "live operating-point swaps"),
            flag("gray-faults", SEED, Absent, "inject gray telemetry failures"),
            flag("gray-kind", GRAY_KINDS, Value("mix"), "gray-fault kind"),
            flag("detection", ON_OFF, Value("off"), "online gray-failure detector"),
            JSON,
        ],
        build: |a| {
            Ok(Command::Fleet {
                devices: a.get("devices")?,
                scale: a.get("scale")?,
                seed: a.get("seed")?,
                users: a.get("users")?,
                rps: a.get("rps")?,
                workers: a.get("workers")?,
                slo_ms: a.get("slo-ms")?,
                governor: a.opt("governor")?,
                energy_weight: a.get("energy-weight")?,
                faults: a.opt("faults")?,
                chaos: a.opt("chaos")?,
                scenario: a.get_with("scenario", parse_scenario)?,
                reconfigure: a.get("reconfigure")?,
                gray_faults: a.opt("gray-faults")?,
                gray_kind: a.get("gray-kind")?,
                detection: a.get("detection")?,
                json: a.opt("json")?,
            })
        },
    },
];

fn parse_baseline(s: &str) -> Result<usize, String> {
    s.strip_prefix('a')
        .and_then(|d| d.parse::<usize>().ok())
        .filter(|&i| i <= 6)
        .ok_or_else(|| format!("{} (expected a0..a6)", unknown(s)))
}

/// `none` is the calm workload; anything else must be a scenario name.
fn parse_scenario(s: &str) -> Result<Option<String>, String> {
    match s {
        "none" => Ok(None),
        name if SCENARIO_NAMES.contains(&name) => Ok(Some(name.to_string())),
        other => Err(unknown(other)),
    }
}

fn unknown(s: &str) -> String {
    format!("unknown value '{s}'")
}

/// A type a flag value parses into.
trait FlagValue: Sized {
    fn from_flag(s: &str) -> Result<Self, String>;
}

macro_rules! from_str_flag {
    ($($t:ty),*) => {$(
        impl FlagValue for $t {
            fn from_flag(s: &str) -> Result<Self, String> {
                s.parse().map_err(|e: <$t as std::str::FromStr>::Err| e.to_string())
            }
        }
    )*};
}

from_str_flag!(u64, usize, f32, f64, String);

fn lookup<T: Copy>(table: &[(&str, T)], s: &str) -> Result<T, String> {
    table.iter().find(|(name, _)| *name == s).map(|(_, v)| *v).ok_or_else(|| unknown(s))
}

impl FlagValue for bool {
    fn from_flag(s: &str) -> Result<Self, String> {
        lookup(&SWITCH, s)
    }
}

impl FlagValue for Scale {
    fn from_flag(s: &str) -> Result<Self, String> {
        Scale::parse(s).ok_or_else(|| unknown(s))
    }
}

impl FlagValue for HwTarget {
    fn from_flag(s: &str) -> Result<Self, String> {
        HwTarget::parse_cli(s).ok_or_else(|| unknown(s))
    }
}

impl FlagValue for GovernorKind {
    fn from_flag(s: &str) -> Result<Self, String> {
        GovernorKind::parse(s).ok_or_else(|| unknown(s))
    }
}

impl FlagValue for GrayFaultKind {
    fn from_flag(s: &str) -> Result<Self, String> {
        GrayFaultKind::from_name(s).map_err(|_| unknown(s))
    }
}

impl FlagValue for Vec<HwTarget> {
    fn from_flag(s: &str) -> Result<Self, String> {
        hadas_fleet::parse_device_spec(s).map_err(|e| e.to_string())
    }
}

/// One invocation's `--flag value` pairs, checked against its [`Spec`].
struct Flags<'a> {
    spec: &'static Spec,
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Reads `rest` against `spec`'s table; `None` when it asks for help.
    fn read(spec: &'static Spec, rest: &'a [String]) -> Result<Option<Self>, ParseCliError> {
        let mut given: Vec<(&str, &str)> = Vec::new();
        let mut tokens = rest.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            if token == "--help" || token == "-h" {
                return Ok(None);
            }
            let Some(name) = token.strip_prefix("--") else {
                return Err(ParseCliError(format!("expected a --flag, got '{token}'")));
            };
            if spec.flag(name).is_none() {
                let allowed: Vec<String> =
                    spec.flags.iter().map(|f| format!("--{}", f.name)).collect();
                return Err(ParseCliError(format!(
                    "unknown flag '--{name}' for {} (allowed: {})",
                    spec.name,
                    allowed.join(", ")
                )));
            }
            if given.iter().any(|(n, _)| *n == name) {
                return Err(ParseCliError(format!("flag '--{name}' given more than once")));
            }
            let value = tokens
                .next()
                .ok_or_else(|| ParseCliError(format!("flag '--{name}' needs a value")))?;
            given.push((name, value));
        }
        Ok(Some(Flags { spec, given }))
    }

    /// The flag's parsed value, or its fallback's; `None` if neither.
    fn parse_with<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, ParseCliError> {
        let flag = self.spec.flag(name);
        let value = match self.given.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => Some(*v),
            None => match flag.map(|f| f.fallback) {
                Some(Value(v)) => Some(v),
                _ => None,
            },
        };
        value
            .map(|v| {
                parse(v).map_err(|e| match flag.map(|f| f.meta) {
                    Some(meta @ Meta::OneOf(_)) => {
                        ParseCliError(format!("bad --{name}: {e} (expected {meta})"))
                    }
                    _ => ParseCliError(format!("bad --{name}: {e}")),
                })
            })
            .transpose()
    }

    fn get_with<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, ParseCliError> {
        self.parse_with(name, parse)?
            .ok_or_else(|| ParseCliError(format!("{} requires --{name}", self.spec.name)))
    }

    fn get<T: FlagValue>(&self, name: &str) -> Result<T, ParseCliError> {
        self.get_with(name, T::from_flag)
    }

    fn opt<T: FlagValue>(&self, name: &str) -> Result<Option<T>, ParseCliError> {
        self.parse_with(name, T::from_flag)
    }
}

fn command_spec(name: &str) -> Option<&'static Spec> {
    COMMANDS.iter().find(|spec| spec.name == name)
}

/// The generated usage text: one subcommand's when `command` names one,
/// otherwise every subcommand's.
pub fn usage(command: Option<&str>) -> String {
    if let Some(spec) = command.and_then(command_spec) {
        return format!("USAGE:\n{spec}");
    }
    let commands: Vec<String> = COMMANDS.iter().map(Spec::to_string).collect();
    format!(
        "hadas — hardware-aware dynamic NAS (DATE 2023 reproduction)\n\n\
         USAGE: hadas <command> [--flag value]...  (hadas <command> --help for one)\n\n\
         COMMANDS:\n{}",
        commands.join("\n")
    )
}

impl Command {
    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ParseCliError`] with a user-facing message on malformed
    /// input.
    pub fn parse(args: &[String]) -> Result<Command, ParseCliError> {
        let Some(sub) = args.first() else {
            return Ok(Command::Help);
        };
        if matches!(sub.as_str(), "help" | "--help" | "-h") {
            return Ok(Command::Help);
        }
        let spec = command_spec(sub).ok_or_else(|| {
            let names: Vec<&str> = COMMANDS.iter().map(|spec| spec.name).collect();
            ParseCliError(format!("unknown command '{sub}' (try: {}, help)", names.join(", ")))
        })?;
        match Flags::read(spec, &args[1..])? {
            Some(flags) => (spec.build)(&flags),
            None => Ok(Command::Help),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(Command::parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn search_parses_all_flags() {
        let cmd =
            Command::parse(&argv("search --target tx2-gpu --scale mid --seed 42 --json out.json"))
                .unwrap();
        assert_eq!(
            cmd,
            Command::Search {
                target: HwTarget::Tx2PascalGpu,
                scale: Scale::Mid,
                seed: 42,
                json: Some("out.json".into()),
                checkpoint: None,
                resume: None,
                max_generations: None,
                faults: None,
                data_chaos: None,
                workers: 0,
                chaos: None,
            }
        );
    }

    #[test]
    fn search_defaults_apply() {
        let cmd = Command::parse(&argv("search --target agx-cpu")).unwrap();
        assert_eq!(
            cmd,
            Command::Search {
                target: HwTarget::AgxCarmelCpu,
                scale: Scale::Quick,
                seed: 7,
                json: None,
                checkpoint: None,
                resume: None,
                max_generations: None,
                faults: None,
                data_chaos: None,
                workers: 0,
                chaos: None,
            }
        );
    }

    #[test]
    fn search_parses_robustness_flags() {
        let cmd = Command::parse(&argv(
            "search --target tx2-gpu --checkpoint results/checkpoint.json \
             --max-generations 3 --faults 99",
        ))
        .unwrap();
        assert!(matches!(
            &cmd,
            Command::Search {
                checkpoint: Some(c),
                resume: None,
                max_generations: Some(3),
                faults: Some(99),
                ..
            } if c == "results/checkpoint.json"
        ));
        let cmd = Command::parse(&argv("search --target tx2-gpu --resume results/checkpoint.json"))
            .unwrap();
        assert!(matches!(
            &cmd,
            Command::Search { resume: Some(r), .. } if r == "results/checkpoint.json"
        ));
        assert!(Command::parse(&argv("search --target tx2-gpu --max-generations lots")).is_err());
        assert!(Command::parse(&argv("search --target tx2-gpu --faults many")).is_err());
    }

    #[test]
    fn search_parses_data_chaos() {
        let cmd = Command::parse(&argv("search --target tx2-gpu --data-chaos 17")).unwrap();
        assert!(matches!(cmd, Command::Search { data_chaos: Some(17), .. }));
        assert!(Command::parse(&argv("search --target tx2-gpu --data-chaos loud")).is_err());
    }

    #[test]
    fn search_parses_parallel_flags() {
        let cmd = Command::parse(&argv("search --target tx2-gpu --workers 4 --chaos 13")).unwrap();
        assert!(matches!(cmd, Command::Search { workers: 4, chaos: Some(13), .. }));
        assert!(Command::parse(&argv("search --target tx2-gpu --workers many")).is_err());
        assert!(Command::parse(&argv("search --target tx2-gpu --chaos loud")).is_err());
    }

    #[test]
    fn train_parses_all_flags() {
        let cmd = Command::parse(&argv(
            "train --epochs 6 --batch 8 --lr 0.1 --seed 11 --data-chaos 3 \
             --train-checkpoint ckpt.json --resume-train on --max-epochs 2 --json out.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Train {
                epochs: 6,
                batch: 8,
                lr: 0.1,
                seed: 11,
                data_chaos: Some(3),
                checkpoint: Some("ckpt.json".into()),
                resume: true,
                max_epochs: Some(2),
                json: Some("out.json".into()),
            }
        );
    }

    #[test]
    fn train_defaults_apply() {
        let cmd = Command::parse(&argv("train")).unwrap();
        assert_eq!(
            cmd,
            Command::Train {
                epochs: 4,
                batch: 16,
                lr: 0.05,
                seed: 7,
                data_chaos: None,
                checkpoint: None,
                resume: false,
                max_epochs: None,
                json: None,
            }
        );
    }

    #[test]
    fn train_flags_validate() {
        assert!(Command::parse(&argv("train --epochs many")).is_err());
        assert!(Command::parse(&argv("train --lr hot")).is_err());
        assert!(Command::parse(&argv("train --resume-train maybe")).is_err());
        assert!(
            Command::parse(&argv("train --resume-train on")).is_err(),
            "resume without a checkpoint path must be rejected"
        );
        assert!(Command::parse(&argv("train --data-chaos wild")).is_err());
    }

    #[test]
    fn ioe_parses_baseline_names() {
        let cmd = Command::parse(&argv("ioe --target tx2-cpu --baseline a5")).unwrap();
        assert!(matches!(cmd, Command::Ioe { baseline: 5, .. }));
        assert!(Command::parse(&argv("ioe --target tx2-cpu --baseline a7")).is_err());
        assert!(Command::parse(&argv("ioe --target tx2-cpu --baseline b1")).is_err());
    }

    #[test]
    fn check_parses_optional_target() {
        assert_eq!(Command::parse(&argv("check")).unwrap(), Command::Check { target: None });
        assert_eq!(
            Command::parse(&argv("check --target tx2-gpu")).unwrap(),
            Command::Check { target: Some(HwTarget::Tx2PascalGpu) }
        );
        assert!(Command::parse(&argv("check --target warp-drive")).is_err());
    }

    #[test]
    fn serve_parses_all_flags() {
        let cmd = Command::parse(&argv(
            "serve --target tx2-gpu --scale quick --seed 9 --rps 200 --duration 5 \
             --workers 4 --batch-max 16 --slo-ms 80 --governor latency --faults 3 \
             --chaos 13 --brownout on --hedge-factor 2.5 --json out.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                target: HwTarget::Tx2PascalGpu,
                scale: Scale::Quick,
                seed: 9,
                rps: 200.0,
                duration_s: 5.0,
                workers: 4,
                batch_max: 16,
                slo_ms: 80.0,
                governor: hadas_serve::GovernorKind::Latency,
                faults: Some(3),
                chaos: Some(13),
                brownout: true,
                hedge_factor: 2.5,
                json: Some("out.json".into()),
            }
        );
    }

    #[test]
    fn serve_defaults_apply() {
        let cmd = Command::parse(&argv("serve --target agx-gpu")).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                target: HwTarget::AgxVoltaGpu,
                seed: 7,
                workers: 2,
                batch_max: 8,
                governor: hadas_serve::GovernorKind::Queue,
                faults: None,
                chaos: None,
                brownout: false,
                json: None,
                ..
            }
        ));
        assert!(matches!(cmd, Command::Serve { hedge_factor, .. } if hedge_factor == 3.0));
        assert!(Command::parse(&argv("serve")).is_err(), "serve requires --target");
        assert!(Command::parse(&argv("serve --target tx2-gpu --governor warp")).is_err());
        assert!(Command::parse(&argv("serve --target tx2-gpu --rps fast")).is_err());
    }

    #[test]
    fn serve_resilience_flags_validate() {
        assert!(Command::parse(&argv("serve --target tx2-gpu --chaos loud")).is_err());
        assert!(Command::parse(&argv("serve --target tx2-gpu --brownout maybe")).is_err());
        assert!(Command::parse(&argv("serve --target tx2-gpu --hedge-factor soon")).is_err());
        let cmd = Command::parse(&argv("serve --target tx2-gpu --brownout off")).unwrap();
        assert!(matches!(cmd, Command::Serve { brownout: false, .. }));
    }

    #[test]
    fn fleet_parses_all_flags() {
        let cmd = Command::parse(&argv(
            "fleet --devices agx-gpu:2,tx2-gpu:1 --scale quick --seed 9 --users 5000 \
             --rps 250 --workers 4 --slo-ms 80 --governor latency --energy-weight 0.05 \
             --faults 3 --chaos 13 --scenario diurnal --reconfigure on \
             --gray-faults 11 --gray-kind slow --detection on --json fleet.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Fleet {
                devices: vec![HwTarget::AgxVoltaGpu, HwTarget::AgxVoltaGpu, HwTarget::Tx2PascalGpu],
                scale: Scale::Quick,
                seed: 9,
                users: 5000,
                rps: 250.0,
                workers: 4,
                slo_ms: 80.0,
                governor: Some(hadas_serve::GovernorKind::Latency),
                energy_weight: 0.05,
                faults: Some(3),
                chaos: Some(13),
                scenario: Some("diurnal".into()),
                reconfigure: true,
                gray_faults: Some(11),
                gray_kind: hadas_runtime::GrayFaultKind::SilentSlowdown,
                detection: true,
                json: Some("fleet.json".into()),
            }
        );
    }

    #[test]
    fn fleet_gray_flags_validate() {
        for (name, kind) in [
            ("stale", hadas_runtime::GrayFaultKind::Stale),
            ("corrupt", hadas_runtime::GrayFaultKind::Corrupt),
            ("drop", hadas_runtime::GrayFaultKind::Drop),
            ("slow", hadas_runtime::GrayFaultKind::SilentSlowdown),
            ("flap", hadas_runtime::GrayFaultKind::Flap),
            ("mix", hadas_runtime::GrayFaultKind::Mix),
        ] {
            let cmd = Command::parse(&argv(&format!("fleet --gray-faults 5 --gray-kind {name}")))
                .unwrap();
            assert!(matches!(
                cmd,
                Command::Fleet { gray_faults: Some(5), gray_kind: k, .. } if k == kind
            ));
        }
        assert!(Command::parse(&argv("fleet --gray-kind sideways")).is_err());
        assert!(Command::parse(&argv("fleet --gray-faults many")).is_err());
        assert!(Command::parse(&argv("fleet --detection maybe")).is_err());
        let on = Command::parse(&argv("fleet --detection on")).unwrap();
        assert!(matches!(on, Command::Fleet { detection: true, gray_faults: None, .. }));
    }

    #[test]
    fn fleet_scenario_flags_validate() {
        for name in hadas_runtime::SCENARIO_NAMES {
            let cmd = Command::parse(&argv(&format!("fleet --scenario {name}"))).unwrap();
            assert!(matches!(
                cmd,
                Command::Fleet { scenario: Some(ref s), .. } if s == name
            ));
        }
        let calm = Command::parse(&argv("fleet --scenario none")).unwrap();
        assert!(matches!(calm, Command::Fleet { scenario: None, .. }));
        assert!(Command::parse(&argv("fleet --scenario heatwave")).is_err());
        assert!(Command::parse(&argv("fleet --reconfigure maybe")).is_err());
        let off = Command::parse(&argv("fleet --reconfigure off")).unwrap();
        assert!(matches!(off, Command::Fleet { reconfigure: false, .. }));
    }

    #[test]
    fn fleet_defaults_apply() {
        let cmd = Command::parse(&argv("fleet")).unwrap();
        assert!(matches!(
            cmd,
            Command::Fleet {
                seed: 7,
                users: 4_000,
                workers: 1,
                governor: None,
                faults: None,
                chaos: None,
                scenario: None,
                reconfigure: false,
                gray_faults: None,
                gray_kind: hadas_runtime::GrayFaultKind::Mix,
                detection: false,
                json: None,
                ..
            }
        ));
        // `mixed:8` expands round-robin across all four targets.
        assert!(matches!(cmd, Command::Fleet { ref devices, .. } if devices.len() == 8));
        assert!(Command::parse(&argv("fleet --devices tx2-gpu:0")).is_err());
        assert!(Command::parse(&argv("fleet --devices warp-drive:2")).is_err());
        assert!(Command::parse(&argv("fleet --users none")).is_err());
        assert!(Command::parse(&argv("fleet --energy-weight heavy")).is_err());
    }

    #[test]
    fn unknown_flags_and_commands_error() {
        assert!(Command::parse(&argv("search --target tx2-gpu --bogus 1")).is_err());
        assert!(Command::parse(&argv("frobnicate")).is_err());
        assert!(Command::parse(&argv("search --target warp-drive")).is_err());
        let repeated = Command::parse(&argv("ioe --target tx2-gpu --seed 1 --seed 2")).unwrap_err();
        assert!(repeated.0.contains("--seed"), "{repeated}");
    }

    #[test]
    fn subcommand_help_prints_only_that_subcommand() {
        for (line, sub, other) in
            [("search --help", "search", "--gray-kind"), ("fleet -h", "fleet", "--max-generations")]
        {
            assert_eq!(Command::parse(&argv(line)).unwrap(), Command::Help);
            let text = usage(Some(sub));
            assert!(text.contains(&format!("hadas {sub}")), "{text}");
            assert!(!text.contains(other), "{text}");
        }
        assert!(usage(Some("fleet")).contains("--detection on|off"));
        assert!(usage(Some("search")).contains("--target agx-gpu|agx-cpu|tx2-gpu|tx2-cpu"));
        assert_eq!(usage(Some("help")), usage(None));
    }

    #[test]
    fn missing_value_errors() {
        assert!(Command::parse(&argv("search --target")).is_err());
    }

    #[test]
    fn every_scale_round_trips_through_search_scale() {
        for scale in Scale::ALL {
            let cmd = format!("search --target tx2-gpu --scale {}", scale.name());
            match Command::parse(&argv(&cmd)).unwrap() {
                Command::Search { scale: parsed, .. } => assert_eq!(parsed, scale),
                other => panic!("{cmd}: {other:?}"),
            }
        }
        assert!(Command::parse(&argv("search --target tx2-gpu --scale huge")).is_err());
    }
}
