//! Every bench binary parses its command line through `xtree_cli::Args`
//! against its usage synopsis: a flag the synopsis does not name is
//! rejected with exit code 2 before any work, spawn or file write, and
//! every name the synopsis shows parses the way it is shown. A binary
//! whose stdout reader has gone away still exits 0.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

const BINS: [(&str, &str); 10] = [
    ("chaosbench", env!("CARGO_BIN_EXE_chaosbench")),
    ("clusterbench", env!("CARGO_BIN_EXE_clusterbench")),
    ("embedbench", env!("CARGO_BIN_EXE_embedbench")),
    ("faultbench", env!("CARGO_BIN_EXE_faultbench")),
    ("hostbench", env!("CARGO_BIN_EXE_hostbench")),
    ("loadgen", env!("CARGO_BIN_EXE_loadgen")),
    ("scenariobench", env!("CARGO_BIN_EXE_scenariobench")),
    ("simbench", env!("CARGO_BIN_EXE_simbench")),
    ("tables", env!("CARGO_BIN_EXE_tables")),
    ("telbench", env!("CARGO_BIN_EXE_telbench")),
];

/// A fresh empty directory for one run: the tests run in parallel.
fn fresh_dir(name: &str) -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "xtree-bin-flags-{}-{run}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `exe --no-such-flag` from a fresh empty directory and returns its
/// output, after checking that it left the directory empty.
fn run_with_unknown_flag(name: &str, exe: &str) -> Output {
    let dir = fresh_dir(name);
    let out = Command::new(exe)
        .arg("--no-such-flag")
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("run {name}: {e}"));
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(written.is_empty(), "{name} wrote {written:?}");
    out
}

#[test]
fn a_closed_stdout_is_no_failure() {
    // The reader end of stdout is closed before the binary prints its
    // result document, as `faultbench --smoke | head -1` leaves it.
    for (name, exe) in BINS {
        if name != "faultbench" && name != "telbench" {
            continue;
        }
        let dir = fresh_dir(name);
        let mut child = Command::new(exe)
            .arg("--smoke")
            .current_dir(&dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("run {name}: {e}"));
        drop(child.stdout.take());
        let status = child.wait().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(status.code(), Some(0), "{name} --smoke with stdout closed");
    }
}

/// The synopsis a binary prints after `usage: NAME `.
fn printed_synopsis(name: &str, stderr: &str) -> String {
    let prefix = format!("usage: {name} ");
    let at = stderr
        .find(&prefix)
        .unwrap_or_else(|| panic!("{name} printed no usage: {stderr}"));
    stderr[at + prefix.len()..].trim_end().to_string()
}

#[test]
fn every_bin_rejects_an_unknown_flag_before_any_work() {
    for (name, exe) in BINS {
        let out = run_with_unknown_flag(name, exe);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("--no-such-flag"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} printed to stdout");
    }
}

#[test]
fn every_name_in_every_bin_usage_parses_as_shown() {
    let words = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    for (name, exe) in BINS {
        let out = run_with_unknown_flag(name, exe);
        let synopsis = printed_synopsis(name, &String::from_utf8_lossy(&out.stderr));
        // `tables ID…` needs its positional filled first.
        let lead = if synopsis.starts_with('[') { "" } else { "x " };
        for (flag, takes_value) in xtree_cli::options(&synopsis) {
            let with_value = xtree_cli::Args::parse(&synopsis, words(&format!("{lead}--{flag} v")));
            let bare = xtree_cli::Args::parse(&synopsis, words(&format!("{lead}--{flag}")));
            if takes_value {
                assert_eq!(with_value.unwrap().get(flag), Some("v"), "{name} --{flag}");
                assert!(bare.is_err(), "{name} --{flag} needs a value");
            } else {
                assert!(bare.unwrap().flag(flag), "{name} --{flag}");
                // A word after a bare flag is never its value: an error,
                // or one more positional where the synopsis repeats one.
                if let Ok(a) = with_value {
                    let last = a.positionals().last().map(String::as_str);
                    assert_eq!(last, Some("v"), "{name} --{flag} takes none");
                }
            }
        }
    }
}
