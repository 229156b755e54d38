//! Property tests: the CLI parser never panics on arbitrary argument
//! vectors and round-trips well-formed invocations.

use hadas_cli::{usage, Command};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary argv never panics — it parses or errors cleanly.
    #[test]
    fn parser_never_panics(args in proptest::collection::vec("[ -~]{0,16}", 0..8)) {
        let _ = Command::parse(&args);
    }

    /// Any valid seed round-trips through the search command.
    #[test]
    fn seeds_round_trip(seed in any::<u64>()) {
        let args = vec![
            "search".to_string(),
            "--target".to_string(),
            "tx2-gpu".to_string(),
            "--seed".to_string(),
            seed.to_string(),
        ];
        match Command::parse(&args).expect("valid invocation") {
            Command::Search { seed: parsed, .. } => prop_assert_eq!(parsed, seed),
            other => prop_assert!(false, "unexpected command {:?}", other),
        }
    }

    /// Flag order does not matter.
    #[test]
    fn flag_order_is_irrelevant(swap in any::<bool>()) {
        let mut pairs = vec![
            ("--target", "agx-cpu"),
            ("--scale", "mid"),
        ];
        if swap {
            pairs.reverse();
        }
        let mut args = vec!["search".to_string()];
        for (k, v) in pairs {
            args.push(k.to_string());
            args.push(v.to_string());
        }
        let cmd = Command::parse(&args).expect("valid invocation");
        let is_search = matches!(cmd, Command::Search { .. });
        prop_assert!(is_search);
    }
}

const SUBCOMMANDS: [&str; 9] =
    ["devices", "baselines", "search", "train", "ioe", "check", "proxy", "serve", "fleet"];

/// The `--flag` tokens a help text mentions.
fn help_flags(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|token| token.len() > 2 && token.starts_with("--"))
        .map(str::to_string)
        .collect()
}

/// True when `sub` accepts `flag`: any outcome but the unknown-flag error.
fn accepts(sub: &str, flag: &str) -> bool {
    let args = [sub, flag, "x"].map(str::to_string);
    !matches!(Command::parse(&args), Err(e) if e.0.starts_with("unknown flag"))
}

/// Each subcommand accepts exactly the flags its help text lists.
#[test]
fn help_and_grammar_agree() {
    // Every flag name the CLI has accepted, plus any a help text mentions,
    // so a flag missing from every help text is still probed.
    let mut universe: BTreeSet<String> = [
        "--target",
        "--scale",
        "--seed",
        "--json",
        "--checkpoint",
        "--resume",
        "--max-generations",
        "--faults",
        "--data-chaos",
        "--workers",
        "--chaos",
        "--epochs",
        "--batch",
        "--lr",
        "--train-checkpoint",
        "--resume-train",
        "--max-epochs",
        "--baseline",
        "--samples",
        "--rps",
        "--duration",
        "--batch-max",
        "--slo-ms",
        "--governor",
        "--brownout",
        "--hedge-factor",
        "--devices",
        "--users",
        "--energy-weight",
        "--scenario",
        "--reconfigure",
        "--gray-faults",
        "--gray-kind",
        "--detection",
        "--help",
        "--bogus",
    ]
    .map(str::to_string)
    .into();
    universe.extend(help_flags(&usage(None)));
    for sub in SUBCOMMANDS {
        let listed = help_flags(&usage(Some(sub)));
        for flag in &universe {
            assert_eq!(accepts(sub, flag), listed.contains(flag), "{sub} {flag}");
        }
    }
    let full = usage(None);
    for flag in ["--gray-faults", "--gray-kind", "--detection"] {
        assert!(accepts("fleet", flag) && full.contains(flag), "{flag}");
    }
}

/// The binary exits 0 on `<cmd> --help` and 2 on a repeated flag.
#[test]
fn binary_help_and_repeat_exit_codes() {
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_hadas"))
            .args(args)
            .output()
            .expect("hadas runs")
    };
    for sub in SUBCOMMANDS {
        let out = run(&[sub, "--help"]);
        assert_eq!(out.status.code(), Some(0), "{sub} --help");
        assert_eq!(String::from_utf8_lossy(&out.stdout), usage(Some(sub)));
    }
    let out = run(&["ioe", "--target", "tx2-gpu", "--seed", "1", "--seed", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));
}
