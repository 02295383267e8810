//! A command line that names a flag its subcommand's usage does not show,
//! or gets a flag's value wrong, exits 2 with the usage before any work:
//! no output, and for `serve`, no listener.

use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `xtree-cli args` to completion (failing past `limit`) and returns
/// its exit code, stdout and stderr.
fn cli(args: &[&str], limit: Duration) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xtree-cli"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xtree-cli");
    let start = Instant::now();
    while child.try_wait().expect("poll xtree-cli").is_none() {
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("xtree-cli {args:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collect output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts that `xtree-cli args` exits 2 with no output, naming `named`
/// and printing the usage.
fn assert_usage_error(args: &[&str], named: &str) {
    let (code, stdout, stderr) = cli(args, Duration::from_secs(30));
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
    assert!(stderr.contains(named), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn bad_embed_flags_exit_2_before_any_work() {
    for (args, named) in [
        (&["embed", "--famly", "path"][..], "--famly"),
        (&["embed", "--family", "path", "--nodes"][..], "--nodes"),
        (&["embed", "--nodes"][..], "--nodes"),
        (&["embed", "--json", "extra"][..], "extra"),
    ] {
        assert_usage_error(args, named);
    }
}

#[test]
fn request_refuses_a_flag_its_op_does_not_read_before_connecting() {
    // Nothing listens on port 1: a request that got as far as connecting
    // would exit 3, not 2.
    for (op, flag, value) in [
        ("stats", "--theorem", "9"),
        ("embed", "--workload", "nosuch"),
        ("health", "--family", "path"),
        ("shutdown", "--host", "xtree"),
    ] {
        let args = ["request", op, "--addr", "127.0.0.1:1", flag, value];
        assert_usage_error(&args, flag);
    }
}

#[test]
fn serve_with_a_misspelt_flag_binds_no_listener() {
    // A free port, released for the daemon to (not) take.
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("probe a free port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    // A daemon that bound would block here until killed.
    let (code, stdout, stderr) = cli(
        &["serve", "--addr", &addr, "--workrs", "1"],
        Duration::from_secs(30),
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(!stdout.contains("listening"), "{stdout}");
    assert!(stderr.contains("--workrs"), "{stderr}");
    TcpListener::bind(&addr).expect("the port is still free");
}
