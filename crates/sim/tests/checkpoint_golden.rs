//! Golden bytes of the `XCKPT1` container.
//!
//! The round-trip tests (and CI's checkpoint→resume `cmp`) pass as long as
//! encode and decode agree with each other, so they would not notice the
//! two drifting together — which would orphan every checkpoint already on
//! disk. This pins the encoded bytes of one fixed checkpoint instead: a
//! seeded 496-node caterpillar on X(4), supervised under node faults, and
//! paused after three rounds, so the session blob carries a fault state,
//! a plan, a partial report, and recovery totals.
//!
//! Regenerate (only when a change is *meant* to alter the format, which
//! then also needs a new magic):
//! `XTREE_GOLDEN_PRINT=1 cargo test -p xtree-sim --test checkpoint_golden -- --nocapture`

use xtree_core::theorem1;
use xtree_sim::{
    encode_checkpoint, Checkpoint, FaultPlan, Host, RecoveryPolicy, Session, SessionStatus,
    TraceRecorder, XTreeHost,
};
use xtree_trees::TreeFamily;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(encoded length, FNV-1a of the encoded bytes)`, captured at the
/// commit before `XEmbedding` switched to heap-id maps.
const GOLDEN: (usize, u64) = (642, 0x0680_B3B3_926F_3752);

#[test]
fn encoded_checkpoint_bytes_are_pinned() {
    let tree = TreeFamily::Caterpillar.generate_seeded(496, 5);
    let emb = theorem1::embed(&tree).emb;
    let net = XTreeHost::new(emb.height);
    let plan = FaultPlan::random_nodes(net.csr(), 0.1, 2, 16).unwrap();
    let mut session = Session::new(&net, &tree, emb, plan, Some(RecoveryPolicy::default()));
    let mut trace = TraceRecorder::new();
    let status = session.run_with(3, &mut trace).unwrap();
    assert_eq!(status, SessionStatus::Paused);
    let ck = Checkpoint {
        session: session.snapshot(),
        embedding: session.embedding().clone(),
        config: r#"{"family":"caterpillar","nodes":496,"seed":5,"recover":true}"#.into(),
        trace: trace.bytes().to_vec(),
    };
    let bytes = encode_checkpoint(&ck);
    let got = (bytes.len(), fnv1a(&bytes));
    if std::env::var_os("XTREE_GOLDEN_PRINT").is_some() {
        println!("const GOLDEN: (usize, u64) = ({}, {:#018X});", got.0, got.1);
    }
    assert_eq!(got, GOLDEN, "XCKPT1 bytes moved");
}
