//! Option readers several subcommands share, on top of [`xtree_cli::Args`].

use crate::{Args, CliError};
use std::time::Duration;
use xtree_scenario::TrafficModel;
use xtree_sim::telemetry::Format;
use xtree_sim::Backoff;
use xtree_trees::{BinaryTree, TreeFamily};

/// `--family F --nodes N [--seed S]` on `embed`, `simulate` and `trace`:
/// the seeded guest tree and its family label.
pub(crate) fn make_tree(a: &Args) -> Result<(BinaryTree, String), String> {
    let name = a.get_or("family", "random-bst");
    let family = TreeFamily::parse(name).ok_or_else(|| format!("unknown family `{name}`"))?;
    let n: usize = a.num_or("nodes", 1008usize)?;
    if n == 0 {
        return Err("--nodes must be ≥ 1".into());
    }
    let seed: u64 = a.num_or("seed", 7u64)?;
    Ok((family.generate_seeded(n, seed), family.label()))
}

/// `--traffic MODEL` on `embed`/`simulate`: a scenario traffic model, or
/// `None` when the flag is absent.
pub(crate) fn parse_traffic(a: &Args) -> Result<Option<TrafficModel>, String> {
    let parse = |l| TrafficModel::parse(l).ok_or_else(|| format!("unknown traffic model `{l}`"));
    a.get("traffic").map(parse).transpose()
}

/// `--backoff fixed:K|exp:B:C` on `simulate` and `cluster`, and the
/// policy stored in a checkpoint.
pub(crate) fn parse_backoff(spec: &str) -> Result<Backoff, String> {
    let bad = || format!("--backoff: `{spec}` is not fixed:K or exp:BASE:CAP");
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["fixed", k] => k.parse().map(Backoff::Fixed).map_err(|_| bad()),
        ["exp", b, c] => {
            let base = b.parse().map_err(|_| bad())?;
            let cap = c.parse().map_err(|_| bad())?;
            Ok(Backoff::Exponential { base, cap })
        }
        _ => Err(bad()),
    }
}

/// The `--backoff` spelling of `b`.
pub(crate) fn backoff_str(b: Backoff) -> String {
    match b {
        Backoff::Fixed(k) => format!("fixed:{k}"),
        Backoff::Exponential { base, cap } => format!("exp:{base}:{cap}"),
    }
}

/// `--metrics FILE --metrics-format jsonl|prom`: the metrics file that
/// `simulate`, `resume`, `serve` and `cluster` write when they finish.
pub(crate) struct MetricsOut<'a> {
    pub(crate) path: Option<&'a str>,
    format: Format,
}

impl<'a> MetricsOut<'a> {
    pub(crate) fn parse(a: &'a Args) -> Result<Self, String> {
        let format = a.get_or("metrics-format", "jsonl").parse();
        let format = format.map_err(|e| format!("--metrics-format: {e}"))?;
        Ok(MetricsOut {
            path: a.get("metrics"),
            format,
        })
    }

    /// Writes the metrics `render` produces in the chosen format, if a
    /// file was asked for.
    pub(crate) fn write(&self, render: impl FnOnce(Format) -> String) -> Result<(), CliError> {
        let Some(path) = self.path else {
            return Ok(());
        };
        std::fs::write(path, render(self.format))
            .map_err(|e| CliError::Io(format!("--metrics {path}: {e}")))
    }
}

/// `--chaos-seed S [--chaos-profile P]` on `serve`/`cluster`: the seeded
/// fault-injection plan, or `None` when the seed flag is absent.
pub(crate) fn parse_chaos(a: &Args) -> Result<Option<xtree_server::ChaosPlan>, CliError> {
    let Some(seed) = a.num_opt("chaos-seed")? else {
        if a.get("chaos-profile").is_some() {
            return Err("--chaos-profile requires --chaos-seed".into());
        }
        return Ok(None);
    };
    let profile = xtree_server::ChaosProfile::parse(a.get_or("chaos-profile", "medium"))
        .map_err(|e| CliError::Usage(format!("--chaos-profile: {e}")))?;
    Ok(Some(xtree_server::ChaosPlan::new(seed, profile)))
}

/// `--io-timeout-ms T`: per-direction socket timeout for server-side
/// connections; 0 (the default) keeps blocking I/O.
pub(crate) fn parse_io_timeout(a: &Args) -> Result<Option<Duration>, CliError> {
    let ms: u64 = a.num_or("io-timeout-ms", 0u64)?;
    Ok((ms > 0).then(|| Duration::from_millis(ms)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses an `xtree-cli` command line against its subcommand's usage.
    fn parse_command(s: &str) -> Result<(&'static str, Args), String> {
        crate::parse(s.split_whitespace().map(String::from).collect())
            .map(|(command, a)| (command.0, a))
            .map_err(|e| e.message().to_string())
    }

    fn parse(s: &str) -> Result<Args, String> {
        parse_command(s).map(|(_, a)| a)
    }

    #[test]
    fn parses_command_options_flags() {
        let (command, a) = parse_command("embed --family path --nodes 240 --json").unwrap();
        assert_eq!(command, "embed");
        assert_eq!(a.get("family"), Some("path"));
        assert_eq!(a.get("traffic"), None);
        assert_eq!(a.get_or("family", "x"), "path");
        assert_eq!(a.num_or("nodes", 0usize).unwrap(), 240);
        assert!(a.flag("json"));
        assert!(!a.flag("map"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("simulate").unwrap();
        assert_eq!(a.get_or("family", "random-bst"), "random-bst");
        assert_eq!(a.num_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_bad_number() {
        let a = parse("embed --nodes many").unwrap();
        assert!(a.num_or("nodes", 0usize).is_err());
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let a = parse("simulate --fault-rate lots").unwrap();
        let err = a.num_or("fault-rate", 0.0f64).unwrap_err();
        assert!(err.contains("--fault-rate"), "{err}");
        let err = a.num_opt::<f64>("fault-rate").unwrap_err();
        assert!(err.contains("--fault-rate"), "{err}");
    }

    #[test]
    fn num_opt_distinguishes_absent_from_present() {
        let a = parse("simulate --repair-after 12").unwrap();
        assert_eq!(a.num_opt::<u32>("repair-after").unwrap(), Some(12));
        assert_eq!(a.num_opt::<u32>("fault-seed").unwrap(), None);
    }

    #[test]
    fn rejects_positional() {
        assert!(parse("embed stray").is_err());
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse("embed --json --nodes 48").unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.num_or("nodes", 0usize).unwrap(), 48);
    }

    #[test]
    fn every_usage_name_parses_as_shown() {
        for (command, usage, _) in &crate::COMMANDS {
            let names = xtree_cli::options(usage);
            assert!(!names.is_empty(), "{command}: no options");
            // Fill a positional first where the synopsis shows one.
            let lead = if usage.starts_with("--") || usage.starts_with('[') {
                ""
            } else {
                "x "
            };
            for (name, takes_value) in names {
                let with_value = parse(&format!("{command} {lead}--{name} v"));
                let bare = parse(&format!("{command} {lead}--{name}"));
                if takes_value {
                    assert_eq!(
                        with_value.unwrap().get(name),
                        Some("v"),
                        "{command} --{name}"
                    );
                    assert!(bare.is_err(), "{command} --{name} needs a value");
                } else {
                    assert!(bare.unwrap().flag(name), "{command} --{name}");
                    assert!(with_value.is_err(), "{command} --{name} takes none");
                }
            }
        }
    }
}
