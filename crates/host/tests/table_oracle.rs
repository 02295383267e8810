//! Every closed-form host pinned to the BFS reference [`TableHost`], with
//! the printed-seed [`xtree_trees::paramtest`] harness.
//!
//! The [`Host`] contract is exactly the table's: `next_hop(v, dst)` is the
//! smallest-id neighbour of `v` strictly closer to `dst` (and `v` itself
//! at the destination), and `distance` is the true shortest-path metric.
//! Both sides are deterministic, so the comparison is equality on sampled
//! pairs — not just "some downhill neighbour". Past the table's cap there
//! is no oracle, so X-trees up to `X(20)` are checked by walking. A
//! failing seed prints as a `XTREE_PARAM_SEED=0x…` one-liner and belongs
//! in the `regressions` list once fixed.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use xtree_host::{
    Host, HostError, HypercubeHost, TableHost, UniversalHost, XTreeHost, TABLE_HOST_CAP,
};
use xtree_topology::Csr;
use xtree_trees::paramtest::start_parametric_test;

const ITERS: usize = 8;
/// Sampled (source, destination) pairs per host per iteration.
const PAIRS: usize = 256;

/// Each host next to the table built from its own CSR view.
fn with_tables<H: Host>(hosts: impl IntoIterator<Item = H>) -> Vec<(H, TableHost)> {
    hosts
        .into_iter()
        .map(|host| {
            let table = TableHost::new(host.csr().clone()).expect("host fits the table cap");
            (host, table)
        })
        .collect()
}

/// Identical `distance` and identical `next_hop` on every sampled pair,
/// and each hop one step downhill.
fn pin_to_table<H: Host>(host: &H, table: &TableHost, rng: &mut ChaCha8Rng) {
    let n = host.node_count() as u32;
    for _ in 0..PAIRS {
        let v = rng.random_range(0..n);
        let dst = rng.random_range(0..n);
        let (label, d) = (host.label(), host.distance(v, dst));
        assert_eq!(
            d,
            table.distance(v, dst),
            "{label}({n}): distance({v}, {dst})"
        );
        let hop = host.next_hop(v, dst);
        assert_eq!(
            hop,
            table.next_hop(v, dst),
            "{label}({n}): next_hop({v}, {dst})"
        );
        if v != dst {
            assert_eq!(host.distance(hop, dst) + 1, d, "{label}({n}): {v}->{hop}");
        }
    }
}

fn pin_all<H: Host>(name: &str, hosts: impl IntoIterator<Item = H>) {
    let pinned = with_tables(hosts);
    start_parametric_test(name, &[], ITERS, |rng| {
        for (host, table) in &pinned {
            pin_to_table(host, table, rng);
        }
    });
}

#[test]
fn xtree_next_hop_matches_the_bfs_table() {
    pin_all(
        "xtree_next_hop_matches_the_bfs_table",
        (0..=8).map(XTreeHost::new),
    );
}

#[test]
fn hypercube_next_hop_matches_the_bfs_table() {
    pin_all(
        "hypercube_next_hop_matches_the_bfs_table",
        (0..=8).map(HypercubeHost::new),
    );
}

#[test]
fn universal_next_hop_matches_the_bfs_table() {
    // Height 4 is already 496 slot vertices; the quotient shortcut must
    // agree with a table built on the full G_n.
    pin_all(
        "universal_next_hop_matches_the_bfs_table",
        (0..=4).map(UniversalHost::new),
    );
}

#[test]
fn xtree_walks_stay_downhill_past_the_table_cap() {
    // No oracle exists at these sizes — that is the point. The hop-by-hop
    // walk must descend monotonically and reach `dst` in exactly
    // `distance` steps.
    for r in 14..=20 {
        let host = XTreeHost::new(r);
        let n = host.node_count() as u32;
        assert!(n as usize > TABLE_HOST_CAP);
        start_parametric_test(
            &format!("xtree_walks_stay_downhill_past_the_table_cap/X({r})"),
            &[],
            ITERS,
            |rng| {
                for _ in 0..PAIRS / 8 {
                    let (mut at, dst) = (rng.random_range(0..n), rng.random_range(0..n));
                    let total = host.distance(at, dst);
                    let mut hops = 0;
                    while at != dst {
                        let next = host.next_hop(at, dst);
                        assert_eq!(host.distance(next, dst) + 1, host.distance(at, dst));
                        at = next;
                        hops += 1;
                    }
                    assert_eq!(hops, total, "X({r}): walk to {dst}");
                }
            },
        );
    }
}

#[test]
fn table_host_reports_bad_graphs_as_errors() {
    let disconnected = Csr::from_edges(4, &[(0, 1), (2, 3)]);
    let err = TableHost::new(disconnected).unwrap_err();
    assert_eq!(
        err,
        HostError::Disconnected {
            vertices: 4,
            components: 2
        }
    );
    assert!(err.to_string().contains("disconnected"), "{err}");

    let big = XTreeHost::new(13).csr().clone();
    let err = TableHost::new(big).unwrap_err();
    assert_eq!(
        err,
        HostError::TooLarge {
            vertices: (1 << 14) - 1,
            cap: TABLE_HOST_CAP
        }
    );
    assert!(err.to_string().contains("at most 8192"), "{err}");
}
