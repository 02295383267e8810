//! `xtree_cli` — the one command-line parser of `xtree-cli` and of the
//! bench binaries.
//!
//! A binary's usage synopsis is the one list of what it accepts. A name
//! followed by a placeholder (`--nodes N`) takes a value, a bare name
//! (`[--json]`) does not, and words before the first option (`FILE`, `OP`,
//! `ID…`) are positionals; a trailing `…` lets the last one repeat. Only
//! the synopsis's first line is read; later lines are notes. Anything else
//! is rejected: an unknown name, a missing value, a value after a bare
//! flag, or a stray word.

use std::collections::HashMap;

/// A command line parsed against a usage synopsis.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// The values given, an empty one for each bare flag.
    options: HashMap<String, String>,
    positionals: Vec<String>,
    /// Every name the synopsis shows, and whether it takes a value.
    names: HashMap<String, bool>,
}

/// The options `synopsis` names, in order, each with whether it takes a
/// value.
pub fn options(synopsis: &str) -> Vec<(&str, bool)> {
    let words: Vec<&str> = synopsis
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .collect();
    let placeholder = |w: &&str| !w.starts_with('[') && !w.starts_with("--");
    (0..words.len())
        .filter_map(|i| {
            let name = words[i].trim_start_matches('[').strip_prefix("--")?;
            let value = !name.ends_with(']') && words.get(i + 1).is_some_and(placeholder);
            Some((name.trim_end_matches(']'), value))
        })
        .collect()
}

impl Args {
    /// Parses `argv` (the words after the program or subcommand name)
    /// against `synopsis`.
    ///
    /// # Errors
    /// Returns a message naming the offending word: an option the synopsis
    /// does not show, an option missing its value, a value after a bare
    /// flag, or a word the synopsis has no positional for.
    pub fn parse<I: IntoIterator<Item = String>>(synopsis: &str, argv: I) -> Result<Args, String> {
        // The positionals before the first option; a last `…` repeats.
        let first_line = synopsis.lines().next().unwrap_or_default();
        let lead: Vec<&str> = first_line
            .split_whitespace()
            .take_while(|w| !w.trim_start_matches('[').starts_with("--"))
            .collect();
        let (room, repeats) = (lead.len(), lead.last().is_some_and(|w| w.ends_with('…')));
        let names = options(synopsis)
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        let mut args = Args {
            names,
            ..Default::default()
        };
        let mut it = argv.into_iter().peekable();
        let mut after_flag = None;
        while let Some(word) = it.next() {
            let Some(name) = word.strip_prefix("--") else {
                if args.positionals.len() < room || (repeats && room > 0) {
                    args.positionals.push(word);
                    after_flag = None;
                    continue;
                }
                return Err(match after_flag {
                    Some(flag) => format!("--{flag} takes no value (got `{word}`)"),
                    None => format!("unexpected argument `{word}`"),
                });
            };
            after_flag = None;
            match args.names.get(name) {
                None => return Err(format!("unknown option `--{name}`")),
                Some(true) => {
                    let value = it
                        .next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("--{name} is missing its value"))?;
                    args.options.insert(name.to_string(), value);
                }
                Some(false) => {
                    args.options.insert(name.to_string(), String::new());
                    after_flag = Some(name.to_string());
                }
            }
        }
        Ok(args)
    }

    /// String option, `None` when absent. Reading a name the synopsis
    /// does not show with a value is a bug in the caller.
    pub fn get(&self, name: &str) -> Option<&str> {
        debug_assert_eq!(
            self.names.get(name),
            Some(&true),
            "no `--{name} VALUE` in the usage"
        );
        self.options.get(name).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// Parsed numeric option with a default.
    ///
    /// # Errors
    /// Returns a message naming the flag when the value does not parse.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.num_opt(name)?.unwrap_or(default))
    }

    /// Parsed numeric option, `None` when absent.
    ///
    /// # Errors
    /// Returns a message naming the flag when the value does not parse.
    pub fn num_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`"))
        };
        self.get(name).map(parse).transpose()
    }

    /// True if the bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        debug_assert_eq!(
            self.names.get(name),
            Some(&false),
            "no bare `--{name}` in the usage"
        );
        self.options.contains_key(name)
    }

    /// The positional words, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

/// Parses this process's arguments against `synopsis` and reads them into
/// a binary's options with `read`. Any error, the parser's or one of
/// `read`'s own value checks, prints `error: …` and `usage: PROG
/// SYNOPSIS` to stderr and exits with code 2, before the binary does any
/// work.
pub fn parse_env<T>(
    prog: &str,
    synopsis: &str,
    read: impl FnOnce(&Args) -> Result<T, String>,
) -> T {
    let args = Args::parse(synopsis, std::env::args().skip(1));
    args.and_then(|a| read(&a)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\nusage: {prog} {synopsis}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYNOPSIS: &str = "--family F --nodes N [--seed S] [--json] [--map]";

    fn parse(synopsis: &str, s: &str) -> Result<Args, String> {
        Args::parse(synopsis, s.split_whitespace().map(String::from))
    }

    #[test]
    fn synopsis_names_values_and_bare_flags() {
        assert_eq!(
            options(SYNOPSIS),
            [
                ("family", true),
                ("nodes", true),
                ("seed", true),
                ("json", false),
                ("map", false)
            ]
        );
        // A bare flag before a required option, placeholders with `|`, and
        // only the first line counts.
        let notes = "OP --addr HOST:PORT [--recover --max-retries N] [--x a|b]\n  (OP: x --y Z)";
        assert_eq!(
            options(notes),
            [
                ("addr", true),
                ("recover", false),
                ("max-retries", true),
                ("x", true)
            ]
        );
        assert_eq!(
            parse(notes, "stats --addr a").unwrap().positionals(),
            ["stats"]
        );
        assert!(parse(notes, "stats health --addr a").is_err());
    }

    #[test]
    fn rejects_an_unknown_option() {
        let err = parse(SYNOPSIS, "--famly path").unwrap_err();
        assert!(err.contains("--famly"), "{err}");
    }

    #[test]
    fn rejects_a_missing_value() {
        let err = parse(SYNOPSIS, "--family path --nodes").unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
        // An option is no value.
        let err = parse(SYNOPSIS, "--nodes --json").unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
    }

    #[test]
    fn rejects_a_value_after_a_bare_flag() {
        let err = parse(SYNOPSIS, "--json extra").unwrap_err();
        assert!(err.contains("--json") && err.contains("extra"), "{err}");
    }

    #[test]
    fn rejects_a_stray_word() {
        let err = parse(SYNOPSIS, "stray --nodes 4").unwrap_err();
        assert!(err.contains("stray"), "{err}");
        let err = parse("FILE [--json]", "a.ckpt b.ckpt").unwrap_err();
        assert!(err.contains("b.ckpt"), "{err}");
    }

    #[test]
    fn positionals_fill_their_placeholders_anywhere() {
        let a = parse(
            "FILE [--trace FILE] [--json]",
            "--json ck.bin --trace t.bin",
        )
        .unwrap();
        assert_eq!(a.positionals(), ["ck.bin"]);
        assert_eq!(a.get("trace"), Some("t.bin"));
        assert!(a.flag("json"));
        let a = parse("ID… [--json]", "--json t4 f1 delta").unwrap();
        assert_eq!(a.positionals(), ["t4", "f1", "delta"]);
        // A missing positional is the caller's to report.
        assert!(parse("FILE [--json]", "--json")
            .unwrap()
            .positionals()
            .is_empty());
    }

    #[test]
    fn values_defaults_and_numbers() {
        let a = parse(SYNOPSIS, "--nodes 240 --seed x").unwrap();
        assert_eq!(a.get("family"), None);
        assert_eq!(a.get_or("family", "path"), "path");
        assert_eq!(a.num_or("nodes", 0usize).unwrap(), 240);
        assert_eq!(a.num_opt::<u64>("nodes").unwrap(), Some(240));
        let err = a.num_or("seed", 7u64).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(!a.flag("json"));
    }
}
