//! `xtree-cli` — embed and simulate binary trees on X-tree and hypercube
//! hosts from the command line.
//!
//! Each subcommand lives in its own module, with its usage synopsis beside
//! the handler that reads those flags. The synopsis is the one list of
//! what the subcommand accepts: `main` parses the command line against it
//! through [`xtree_cli::Args`] and assembles the printed usage from all of
//! them. Run `xtree-cli` with no arguments to see it.

mod args;
mod cluster;
mod embed;
mod info;
mod request;
mod resume;
mod serve;
mod simulate;
mod sizes;
mod trace;

use xtree_cli::Args;

/// What went wrong, carrying the process exit code: bad invocations exit
/// 2 (and reprint the usage), runtime failures exit 1, and I/O failures
/// (files, sockets) exit 3 — so scripts can tell "fix the command line"
/// from "the run failed" from "the environment failed".
#[derive(Debug)]
enum CliError {
    /// The invocation itself is wrong; exits 2 and shows the usage.
    Usage(String),
    /// The command was well-formed but the operation failed; exits 1.
    Runtime(String),
    /// A file or socket operation failed; exits 3.
    Io(String),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
            CliError::Io(_) => 3,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) | CliError::Io(m) => m,
        }
    }
}

/// Bare-string errors are invocation problems: every parse/validation
/// helper returns `Err(String)`, and `?` lifts them to [`CliError::Usage`].
impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Usage(m.into())
    }
}

/// The `"guest"` object a `--json` report opens with.
fn guest_json(family: &str, nodes: usize) -> xtree_json::Value {
    xtree_json::Value::object()
        .with("family", family)
        .with("nodes", nodes)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    match run(argv) {
        Ok(out) => {
            // Tolerate a closed pipe (e.g. `xtree-cli … | head`): the
            // reader leaving early is not an error.
            use std::io::Write;
            let mut stdout = std::io::stdout().lock();
            if writeln!(stdout, "{out}").is_err() {
                std::process::exit(0);
            }
        }
        Err(e) => {
            match &e {
                CliError::Usage(m) => eprintln!("error: {m}\n\n{}", usage()),
                _ => eprintln!("error: {}", e.message()),
            }
            std::process::exit(e.exit_code());
        }
    }
}

/// A subcommand: its name, its usage synopsis, and its handler.
type Command = (
    &'static str,
    &'static str,
    fn(&Args) -> Result<String, CliError>,
);

static COMMANDS: [Command; 9] = [
    ("embed", embed::USAGE, embed::run),
    ("simulate", simulate::USAGE, simulate::run),
    ("resume", resume::USAGE, resume::run),
    ("info", info::USAGE, info::run),
    ("sizes", sizes::USAGE, sizes::run),
    ("trace", trace::USAGE, trace::run),
    ("serve", serve::USAGE, serve::run),
    ("cluster", cluster::USAGE, cluster::run),
    ("request", request::USAGE, request::run),
];

/// What the placeholders of several subcommands accept.
const NOTES: &str = "families: path complete caterpillar broom random-bst random-attach random-split leaning
          balanced uniform bst-insertion skewed[:BIAS]
traffic:  uniform broadcast reduce exchange dnc zipf[:S] hotspot[:PCT:MULT] diurnal[:PERIODS:PEAK]
chaos:    off light medium heavy, or clauses kind:rate[:arg] joined by commas
          (delay:PERMILLE:MAX_US short:PERMILLE corrupt:PERMILLE reset:PERMILLE truncate:PERMILLE refuse:PERMILLE)";

/// The printed usage: one line per subcommand, then the notes.
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for (name, usage, _) in &COMMANDS {
        text.push_str(&format!("  xtree-cli {name:<8} {usage}\n"));
    }
    text + NOTES
}

/// Finds the subcommand `argv` names and parses the rest against its
/// synopsis.
fn parse(argv: Vec<String>) -> Result<(&'static Command, Args), CliError> {
    let mut argv = argv.into_iter();
    let name = argv.next().unwrap_or_default();
    let command = COMMANDS
        .iter()
        .find(|(n, _, _)| *n == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command `{name}`")))?;
    Ok((command, Args::parse(command.1, argv)?))
}

fn run(argv: Vec<String>) -> Result<String, CliError> {
    let ((_, _, run), a) = parse(argv)?;
    run(&a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_json::Value;
    use xtree_server::{Server, ServerConfig};
    use xtree_topology::{Graph, Hypercube, XTree};

    fn run_str(s: &str) -> Result<String, String> {
        run(s.split_whitespace().map(String::from).collect()).map_err(|e| e.message().to_string())
    }

    #[test]
    fn errors_carry_exit_codes() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        // Bad invocation → usage, exit 2.
        let e = run(argv("embed --family nope")).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        // Missing file → I/O, exit 3.
        let e = run(argv("resume /no/such/file.ckpt")).unwrap_err();
        assert_eq!(e.exit_code(), 3, "{e:?}");
        // Unreachable server → I/O, exit 3.
        let e = run(argv("request health --addr 127.0.0.1:1")).unwrap_err();
        assert_eq!(e.exit_code(), 3, "{e:?}");
    }

    #[test]
    fn request_round_trip_against_spawned_server() {
        let mut server = Server::spawn(&ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let health = run_str(&format!("request health --addr {addr}")).unwrap();
        assert!(
            health.starts_with("ok (queue 0,"),
            "health must report the load signals: {health}"
        );
        let out = run_str(&format!(
            "request embed --addr {addr} --family path --nodes 240"
        ))
        .unwrap();
        assert!(out.contains("host: X(3)"), "{out}");
        assert!(out.contains("load: 16"), "{out}");
        let out = run_str(&format!(
            "request simulate --addr {addr} --family path --nodes 240 --workload broadcast --json"
        ))
        .unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["reports"].as_array().unwrap().len(), 1);
        assert_eq!(v["cached"], true, "embed warmed the cache: {out}");
        let out = run_str(&format!("request stats --addr {addr}")).unwrap();
        assert!(out.contains("cache: 1 hits"), "{out}");
        let out = run_str(&format!("request shutdown --addr {addr}")).unwrap();
        assert!(out.contains("shutting down"), "{out}");
        server.wait();
    }

    #[test]
    fn embed_text_output() {
        let out = run_str("embed --family path --nodes 240").unwrap();
        assert!(out.contains("host: X(3)"));
        assert!(out.contains("load: 16"));
    }

    #[test]
    fn embed_json_output_parses() {
        let out = run_str("embed --family caterpillar --nodes 112 --json --map").unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["guest"]["nodes"], 112);
        assert!(v["dilation"].as_u64().unwrap() <= 3);
        assert_eq!(v["map"].as_array().unwrap().len(), 112);
    }

    #[test]
    fn embed_injective_targets() {
        let out = run_str("embed --family broom --nodes 48 --target xtree-injective").unwrap();
        assert!(out.contains("injective: true"));
        let out =
            run_str("embed --family broom --nodes 48 --target hypercube-injective --json").unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["injective"], true);
    }

    #[test]
    fn simulate_filters_workloads() {
        let out = run_str("simulate --family path --nodes 112 --workload broadcast").unwrap();
        assert!(out.contains("broadcast"));
        assert!(!out.contains("exchange"));
    }

    #[test]
    fn simulate_json() {
        let out = run_str("simulate --family random-bst --nodes 112 --json").unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["reports"].as_array().unwrap().len(), 4);
    }

    #[test]
    fn info_closed_forms_match_constructed_graphs() {
        for r in 0..=8u8 {
            let x = XTree::new(r);
            let out = run_str(&format!("info --height {r}")).unwrap();
            let expect = format!(
                "X({r}): {} vertices, {} edges, max degree {}",
                x.node_count(),
                x.edge_count(),
                x.max_degree()
            );
            assert!(out.contains(&expect), "{out}");
            let q = Hypercube::new(r);
            let out = run_str(&format!("info --height {r} --network hypercube")).unwrap();
            let expect = format!(
                "Q_{r}: {} vertices, {} edges, max degree {}",
                q.node_count(),
                q.edge_count(),
                q.max_degree()
            );
            assert!(out.contains(&expect), "{out}");
        }
    }

    #[test]
    fn info_heights_past_the_old_cap() {
        let out = run_str("info --height 20").unwrap();
        assert!(out.contains("X(20): 2097151 vertices"), "{out}");
        assert!(run_str("info --height 31").is_err());
    }

    #[test]
    fn info_renders_small_xtree() {
        let out = run_str("info --height 3").unwrap();
        assert!(out.contains("X(3): 15 vertices"));
        assert!(out.contains('o'));
    }

    #[test]
    fn sizes_table() {
        let out = run_str("sizes --max-r 4").unwrap();
        assert!(out.contains("496"));
        assert!(out.lines().count() >= 5);
    }

    #[test]
    fn trace_prints_matrix() {
        let out = run_str("trace --family path --nodes 240").unwrap();
        assert!(out.contains("host X(3)"));
        assert!(out.contains("j=3"));
        assert!(out.contains("log:"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_str("embed --family nosuch").is_err());
        assert!(run_str("embed --target nosuch").is_err());
        assert!(run_str("frobnicate").is_err());
        assert!(run_str("simulate --workload nosuch --nodes 48").is_err());
    }

    #[test]
    fn simulate_fault_rate_zero_is_identical_to_no_fault_flags() {
        let plain = run_str("simulate --family path --nodes 112 --seed 3").unwrap();
        let zero = run_str("simulate --family path --nodes 112 --seed 3 --fault-rate 0").unwrap();
        assert_eq!(plain, zero, "a zero fault rate must not change anything");
    }

    #[test]
    fn simulate_with_repaired_faults_delivers_everything() {
        let out = run_str(
            "simulate --family caterpillar --nodes 112 --fault-rate 0.2 --fault-seed 9 \
             --repair-after 3 --json",
        )
        .unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["fault"]["rate"].as_f64(), Some(0.2));
        assert_eq!(v["fault"]["repair_after"], 3);
        for r in v["reports"].as_array().unwrap() {
            assert_eq!(
                r["delivered"], r["messages"],
                "repaired links leave nothing stranded: {r:?}"
            );
            assert_eq!(r["stalled"], false);
        }
    }

    #[test]
    fn simulate_fault_text_output_reports_delivery() {
        let out =
            run_str("simulate --family path --nodes 112 --fault-rate 0.1 --fault-seed 2").unwrap();
        assert!(out.contains("link fault rate 0.1"), "{out}");
        assert!(out.contains("delivered"), "{out}");
        assert!(out.contains("stranded"), "{out}");
    }

    /// A collision-free scratch path for file-producing CLI tests; cleaned
    /// up on drop so parallel test runs never see each other's files.
    struct TmpPath(std::path::PathBuf);

    impl TmpPath {
        fn new(name: &str) -> Self {
            let p = std::env::temp_dir().join(format!("xtree-cli-{}-{name}", std::process::id()));
            let _ = std::fs::remove_file(&p);
            TmpPath(p)
        }

        fn as_str(&self) -> &str {
            self.0.to_str().expect("temp paths are UTF-8")
        }
    }

    impl Drop for TmpPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn simulate_trace_records_verifies_and_rejects_mismatch() {
        let p = TmpPath::new("trace.bin");
        let base = format!(
            "simulate --family caterpillar --nodes 112 --seed 5 --trace {}",
            p.as_str()
        );
        let out = run_str(&base).unwrap();
        assert!(out.contains("telemetry:"), "{out}");
        assert!(out.contains("hottest links:"), "{out}");
        let bytes = std::fs::read(&p.0).unwrap();
        assert!(
            bytes.starts_with(xtree_sim::telemetry::TRACE_MAGIC),
            "trace magic missing"
        );

        // Same seed replays byte-for-byte...
        let out = run_str(&format!(
            "simulate --family caterpillar --nodes 112 --seed 5 --verify-trace {}",
            p.as_str()
        ))
        .unwrap();
        assert!(out.contains("replay verified"), "{out}");

        // ...a different workload does not.
        let err = run_str(&format!(
            "simulate --family caterpillar --nodes 96 --seed 5 --verify-trace {}",
            p.as_str()
        ))
        .unwrap_err();
        assert!(err.contains("replay mismatch"), "{err}");
    }

    #[test]
    fn simulate_metrics_exports_both_formats() {
        let p = TmpPath::new("metrics.prom");
        run_str(&format!(
            "simulate --family path --nodes 112 --metrics {} --metrics-format prom",
            p.as_str()
        ))
        .unwrap();
        let prom = std::fs::read_to_string(&p.0).unwrap();
        assert!(prom.contains("xtree_sim_hops_total"), "{prom}");
        assert!(prom.contains("# TYPE"), "{prom}");

        let p = TmpPath::new("metrics.jsonl");
        run_str(&format!(
            "simulate --family path --nodes 112 --metrics {}",
            p.as_str()
        ))
        .unwrap();
        let jsonl = std::fs::read_to_string(&p.0).unwrap();
        for line in jsonl.lines() {
            let v: Value = xtree_json::from_str(line).unwrap();
            assert!(v["type"].as_str().is_some(), "{line}");
        }
    }

    #[test]
    fn simulate_json_carries_telemetry_object() {
        let p = TmpPath::new("trace-json.bin");
        let out = run_str(&format!(
            "simulate --family broom --nodes 112 --fault-rate 0.1 --trace {} --json",
            p.as_str()
        ))
        .unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert!(v["telemetry"]["events"].as_u64().unwrap() > 0);
        assert!(v["telemetry"]["trace_bytes"].as_u64().unwrap() > 0);
        assert!(!v["telemetry"]["hottest_links"]
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn simulate_rejects_bad_telemetry_args() {
        let err = run_str("simulate --nodes 48 --metrics-format xml").unwrap_err();
        assert!(err.contains("--metrics-format"), "{err}");
        let err = run_str("simulate --nodes 48 --verify-trace /nonexistent/t.bin").unwrap_err();
        assert!(err.contains("--verify-trace"), "{err}");
    }

    #[test]
    fn simulate_recover_heals_node_faults() {
        // Fixed seed where the unsupervised run strands messages...
        let bare = run_str(
            "simulate --family path --nodes 496 --node-fault-rate 0.2 --fault-seed 3 --json",
        )
        .unwrap();
        let v: Value = xtree_json::from_str(&bare).unwrap();
        let stranded: usize = v["reports"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["stranded"].as_u64().unwrap() as usize)
            .sum();
        assert!(stranded > 0, "fixture must strand without recovery: {bare}");
        // ...and the default recovery policy delivers everything.
        let out = run_str(
            "simulate --family path --nodes 496 --node-fault-rate 0.2 --fault-seed 3 --recover",
        )
        .unwrap();
        assert!(out.contains("node fault rate 0.2"), "{out}");
        assert!(out.contains("guests migrated"), "{out}");
        assert!(out.contains("all delivered"), "{out}");
    }

    #[test]
    fn simulate_recover_json_carries_recovery_object() {
        let out = run_str(
            "simulate --family path --nodes 496 --node-fault-rate 0.2 --fault-seed 3 \
             --recover --max-retries 4 --backoff exp:4:64 --json",
        )
        .unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["recovery"]["all_delivered"], true, "{out}");
        assert!(v["recovery"]["migrated"].as_u64().unwrap() > 0, "{out}");
        for r in v["reports"].as_array().unwrap() {
            assert_eq!(r["delivered"], r["messages"], "{r:?}");
        }
    }

    #[test]
    fn checkpoint_resume_trace_is_byte_identical() {
        let full = TmpPath::new("full-trace.bin");
        let ck = TmpPath::new("ck.bin");
        let resumed = TmpPath::new("resumed-trace.bin");
        let base =
            "simulate --family path --nodes 496 --node-fault-rate 0.2 --fault-seed 3 --recover";
        run_str(&format!("{base} --trace {}", full.as_str())).unwrap();
        let out = run_str(&format!(
            "{base} --checkpoint {} --checkpoint-after 3",
            ck.as_str()
        ))
        .unwrap();
        assert!(out.contains("checkpoint:"), "{out}");
        let bytes = std::fs::read(&ck.0).unwrap();
        assert!(bytes.starts_with(xtree_sim::checkpoint::MAGIC), "magic");
        let out = run_str(&format!(
            "resume {} --trace {}",
            ck.as_str(),
            resumed.as_str()
        ))
        .unwrap();
        assert!(out.contains("resumed from"), "{out}");
        assert!(out.contains("all delivered"), "{out}");
        assert_eq!(
            std::fs::read(&full.0).unwrap(),
            std::fs::read(&resumed.0).unwrap(),
            "an interrupted+resumed run must trace byte-identically"
        );
    }

    #[test]
    fn simulate_rejects_bad_recovery_args() {
        let err = run_str("simulate --nodes 48 --recover --backoff weird").unwrap_err();
        assert!(err.contains("--backoff"), "{err}");
        let err = run_str("simulate --nodes 48 --recover --backoff fixed:lots").unwrap_err();
        assert!(err.contains("--backoff"), "{err}");
        let err = run_str("simulate --nodes 48 --checkpoint-after 3").unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        let err = run_str("simulate --nodes 48 --max-retries 2").unwrap_err();
        assert!(err.contains("--recover"), "{err}");
        let err = run_str("simulate --nodes 48 --node-fault-rate 1.5").unwrap_err();
        assert!(err.contains("--node-fault-rate"), "{err}");
        let err = run_str("simulate --nodes 48 --host hypercube --recover").unwrap_err();
        assert!(err.contains("xtree"), "{err}");
    }

    #[test]
    fn resume_rejects_missing_and_garbage_files() {
        assert!(run_str("resume").is_err());
        assert!(run_str("resume /nonexistent/ck.bin").is_err());
        let p = TmpPath::new("garbage-ck.bin");
        std::fs::write(&p.0, b"not a checkpoint").unwrap();
        let err = run_str(&format!("resume {}", p.as_str())).unwrap_err();
        assert!(err.contains("XCKPT1"), "{err}");
    }

    #[test]
    fn simulate_rejects_bad_fault_rate() {
        let err = run_str("simulate --family path --nodes 48 --fault-rate 1.5").unwrap_err();
        assert!(err.contains("--fault-rate"), "{err}");
        let err = run_str("simulate --family path --nodes 48 --fault-rate lots").unwrap_err();
        assert!(err.contains("--fault-rate"), "{err}");
    }
}
