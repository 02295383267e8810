//! `xtree-cli serve` answers a wire `Shutdown` before the process exits.
//!
//! The daemon's main thread returns from `Server::wait` and exits as soon
//! as the drain is done; the `ShutdownOk` reply is written by a
//! connection thread. This runs the real binary, many times in a row, so
//! a reply lost to that race shows up as `connection closed`.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use xtree_server::{Client, Request, Response};

/// Fresh servers to shut down, one after another.
const ROUNDS: usize = 20;

/// The address in `xtree-server listening on <addr> (…)`.
fn listening_addr(line: &str) -> SocketAddr {
    line.split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no address in readiness line {line:?}"))
}

#[test]
fn every_shutdown_gets_its_reply_and_a_clean_exit() {
    for round in 0..ROUNDS {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xtree-cli"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn xtree-cli serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("readiness line");
        let addr = listening_addr(&line);

        let resp = Client::connect(addr)
            .expect("connect")
            .call(&Request::Shutdown);
        // Drain stdout to EOF before reaping, so the final line never
        // meets a closed pipe.
        let mut rest = String::new();
        stdout
            .read_to_string(&mut rest)
            .expect("read server output");
        let status = child.wait().expect("reap xtree-cli serve");

        assert!(
            matches!(resp, Ok(Response::ShutdownOk { .. })),
            "round {round}: Shutdown got {resp:?}"
        );
        assert!(status.success(), "round {round}: server exited {status}");
        assert!(
            rest.contains("drained and stopped"),
            "round {round}: server output {rest:?}"
        );
    }
}
