//! The simulator against every host topology the workspace builds —
//! routing and delivery must work unchanged on X-trees, hypercubes,
//! complete binary trees, meshes, cube-connected cycles, and butterflies.

use xtree_sim::{run_batch, Host, HypercubeHost, Message, TableHost, XTreeHost};
use xtree_topology::{
    Butterfly, CompleteBinaryTree, CubeConnectedCycles, Graph, Hypercube, Mesh2D, XTree,
};

fn deliver_all_pairs<H: Host>(net: &H) {
    // One message per ordered pair (sampled): every delivery must take
    // exactly the shortest-path distance when run alone.
    let n = net.node_count();
    for src in (0..n).step_by(7) {
        for dst in (0..n).step_by(11) {
            let s = run_batch(
                net,
                &[Message {
                    src: src as u32,
                    dst: dst as u32,
                }],
            )
            .unwrap();
            assert_eq!(s.cycles, net.distance(src as u32, dst as u32));
        }
    }
}

#[test]
fn xtree_host() {
    // Both the BFS-table fallback and the closed-form host must deliver
    // every message in exactly the shortest-path time.
    let x = XTree::new(5);
    deliver_all_pairs(&TableHost::new(x.graph().clone()).unwrap());
    deliver_all_pairs(&XTreeHost::new(5));
}

#[test]
fn hypercube_host() {
    let q = Hypercube::new(6);
    deliver_all_pairs(&TableHost::new(q.graph().clone()).unwrap());
    deliver_all_pairs(&HypercubeHost::new(6));
}

#[test]
fn cbt_host() {
    // Tree shortest paths are unique, so the table is all a CBT needs.
    let b = CompleteBinaryTree::new(5);
    deliver_all_pairs(&TableHost::new(b.graph().clone()).unwrap());
}

#[test]
fn mesh_host() {
    let m = Mesh2D::new(6, 9);
    let net = TableHost::new(m.graph().clone()).unwrap();
    deliver_all_pairs(&net);
    // Routed distances equal the Manhattan metric.
    for a in (0..m.node_count()).step_by(5) {
        for b in (0..m.node_count()).step_by(3) {
            assert_eq!(net.distance(a as u32, b as u32), m.distance(a, b));
        }
    }
}

#[test]
fn ccc_host() {
    deliver_all_pairs(&TableHost::new(CubeConnectedCycles::new(4).graph().clone()).unwrap());
}

#[test]
fn butterfly_host() {
    deliver_all_pairs(&TableHost::new(Butterfly::new(4).graph().clone()).unwrap());
}

#[test]
fn delivery_is_deterministic() {
    let x = XTree::new(4);
    let msgs: Vec<Message> = (0..20)
        .map(|i| Message {
            src: i % 31,
            dst: (i * 7 + 3) % 31,
        })
        .collect();
    let table = run_batch(&TableHost::new(x.graph().clone()).unwrap(), &msgs).unwrap();
    let fast = run_batch(&XTreeHost::new(4), &msgs).unwrap();
    assert_eq!(
        table,
        run_batch(&TableHost::new(x.graph().clone()).unwrap(), &msgs).unwrap(),
        "same batch must produce identical statistics"
    );
    assert_eq!(
        table, fast,
        "structured routing must not change delivery statistics"
    );
}

#[test]
fn saturating_batch_terminates() {
    // Every vertex sends to vertex 0: heavy funnel congestion, must still
    // converge with cycles ≥ messages on the last link.
    let net = TableHost::new(XTree::new(4).graph().clone()).unwrap();
    let msgs: Vec<Message> = (1..31).map(|src| Message { src, dst: 0 }).collect();
    let s = run_batch(&net, &msgs).unwrap();
    assert!(
        s.cycles >= 15,
        "30 messages over 2 root links need ≥ 15 cycles"
    );
    assert!(s.max_link_traffic >= 10);
}
