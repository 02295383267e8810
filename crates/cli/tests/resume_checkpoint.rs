//! `xtree-cli resume` rejects a checkpoint that does not fit its own
//! config with a typed checkpoint error (exit 1), never a panic (exit 101).
//!
//! A checkpoint stores the embedding, but `resume` regenerates the guest
//! tree from the config blob beside it, so an edited or corrupt file can
//! pair an embedding with a tree of another size, or name an X-tree no
//! host can build. This runs the real binary on a real checkpoint with
//! each of those edits.

use std::path::PathBuf;
use std::process::{Command, Output};
use xtree_sim::{decode_checkpoint, encode_checkpoint, Checkpoint};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtree-cli"))
        .args(args)
        .output()
        .expect("run xtree-cli")
}

/// A fresh path for this test's checkpoint file.
fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xtree-cli-{}-{name}.xckpt", std::process::id()))
}

/// Writes a checkpoint of a 496-node caterpillar run paused after one
/// round, and returns it decoded.
fn paused_checkpoint(path: &str) -> Checkpoint {
    let out = cli(&[
        "simulate",
        "--family",
        "caterpillar",
        "--nodes",
        "496",
        "--checkpoint",
        path,
        "--checkpoint-after",
        "1",
    ]);
    assert!(out.status.success(), "simulate failed: {out:?}");
    decode_checkpoint(&std::fs::read(path).expect("read checkpoint")).expect("valid checkpoint")
}

/// Resumes `ck` from `path` and checks the typed failure.
fn assert_resume_rejects(path: &str, ck: &Checkpoint, what: &str) {
    std::fs::write(path, encode_checkpoint(ck)).expect("write checkpoint");
    let out = cli(&["resume", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "resume: {stderr}");
    assert!(stderr.contains("bad checkpoint"), "resume: {stderr}");
    assert!(stderr.contains(what), "resume: {stderr}");
}

#[test]
fn resume_rejects_an_embedding_that_does_not_fit_the_config_or_host() {
    let path = scratch_path("misfit");
    let path_str = path.to_str().expect("UTF-8 temp path");
    let ck = paused_checkpoint(path_str);
    // The untouched checkpoint resumes.
    let out = cli(&["resume", path_str]);
    assert!(out.status.success(), "resume: {out:?}");

    // The config names a tree one node larger than the embedding covers.
    let mut grown = ck.clone();
    grown.config = ck.config.replace("\"nodes\":496", "\"nodes\":497");
    assert_ne!(grown.config, ck.config, "config blob: {}", ck.config);
    assert_resume_rejects(path_str, &grown, "496 guest nodes, the tree has 497");

    // An X-tree taller than any host that can be built.
    let mut tall = ck;
    tall.embedding.height = 40;
    assert_resume_rejects(path_str, &tall, "X-tree height 40 exceeds the maximum");

    std::fs::remove_file(&path).expect("remove checkpoint");
}
