//! A minimal graph abstraction for host interconnection networks.
//!
//! All host networks in this crate (X-tree, hypercube, complete binary tree,
//! cube-connected cycles, butterfly) are small, static, undirected, and
//! regular enough that a compressed sparse row ([`Csr`]) representation plus
//! a handful of traversal helpers covers every need of the embedding and
//! simulation layers.

use std::collections::VecDeque;

/// An undirected graph over vertices `0 .. node_count()`.
pub trait Graph {
    /// Number of vertices.
    fn node_count(&self) -> usize;

    /// Number of (undirected) edges.
    fn edge_count(&self) -> usize;

    /// Neighbors of vertex `v`, without duplicates.
    fn neighbors(&self, v: usize) -> &[u32];

    /// Degree of `v`.
    fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// True if `{u, v}` is an edge.
    fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).contains(&(v as u32))
    }
}

/// Compressed-sparse-row storage of an undirected graph.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    edges: usize,
}

impl Csr {
    /// Builds a CSR graph from an undirected edge list.
    ///
    /// Self-loops and duplicate edges are rejected; they never occur in the
    /// regular networks this crate constructs and tolerating them silently
    /// would mask construction bugs.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn from_edges(n: usize, edge_list: &[(u32, u32)]) -> Self {
        let mut deg = vec![0u32; n];
        for &(u, v) in edge_list {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            assert_ne!(u, v, "self-loop {u}");
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(u, v) in edge_list {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        let mut g = Csr {
            offsets,
            targets,
            edges: edge_list.len(),
        };
        for v in 0..n {
            let s = g.offsets[v] as usize;
            let e = g.offsets[v + 1] as usize;
            g.targets[s..e].sort_unstable();
            assert!(
                g.targets[s..e].windows(2).all(|w| w[0] != w[1]),
                "duplicate edge at vertex {v}"
            );
        }
        g
    }

    /// Single-source BFS distances; unreachable vertices get `u32::MAX`.
    pub fn bfs(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.node_count()];
        let mut q = VecDeque::new();
        dist[src] = 0;
        q.push_back(src as u32);
        while let Some(u) = q.pop_front() {
            let d = dist[u as usize] + 1;
            for &w in self.neighbors(u as usize) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = d;
                    q.push_back(w);
                }
            }
        }
        dist
    }

    /// Exact distance between two vertices via bidirectional-ish bounded BFS.
    ///
    /// Returns `None` if the distance exceeds `cap` (or the vertices are
    /// disconnected). Embedding verification only ever asks about distances
    /// of a few hops, so a capped search keeps dilation checks linear.
    pub fn bounded_distance(&self, src: usize, dst: usize, cap: u32) -> Option<u32> {
        if src == dst {
            return Some(0);
        }
        let mut dist = std::collections::HashMap::new();
        let mut q = VecDeque::new();
        dist.insert(src as u32, 0u32);
        q.push_back(src as u32);
        while let Some(u) = q.pop_front() {
            let d = dist[&u] + 1;
            if d > cap {
                return None;
            }
            for &w in self.neighbors(u as usize) {
                if w as usize == dst {
                    return Some(d);
                }
                if d < cap && !dist.contains_key(&w) {
                    dist.insert(w, d);
                    q.push_back(w);
                }
            }
        }
        None
    }

    /// Eccentricity of `src` (max finite BFS distance).
    ///
    /// # Panics
    /// Panics if the graph is disconnected.
    pub fn eccentricity(&self, src: usize) -> u32 {
        let d = self.bfs(src);
        let m = *d.iter().max().unwrap();
        assert_ne!(m, u32::MAX, "graph is disconnected");
        m
    }

    /// Exact diameter by running BFS from every vertex. Fine for the sizes
    /// this workspace benchmarks (≤ a few hundred thousand vertices only via
    /// sampled variants; exact use stays ≤ ~2^14 vertices).
    pub fn diameter(&self) -> u32 {
        (0..self.node_count())
            .map(|v| self.eccentricity(v))
            .max()
            .unwrap_or(0)
    }

    /// True if the graph is connected (empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return true;
        }
        self.bfs(0).iter().all(|&d| d != u32::MAX)
    }

    /// Connected-component labels and the component count.
    ///
    /// Labels are dense in `0..count`, assigned in ascending order of each
    /// component's smallest vertex id, so they are deterministic.
    pub fn component_ids(&self) -> (Vec<u32>, usize) {
        let n = self.node_count();
        let mut label = vec![u32::MAX; n];
        let mut count = 0u32;
        let mut q = VecDeque::new();
        for src in 0..n {
            if label[src] != u32::MAX {
                continue;
            }
            label[src] = count;
            q.push_back(src as u32);
            while let Some(u) = q.pop_front() {
                for &w in self.neighbors(u as usize) {
                    if label[w as usize] == u32::MAX {
                        label[w as usize] = count;
                        q.push_back(w);
                    }
                }
            }
            count += 1;
        }
        (label, count as usize)
    }

    /// The survivor subgraph after faults: keeps every edge `{u, v}` whose
    /// endpoints are both alive and for which `edge_alive(u, v)` holds
    /// (called once per undirected edge, with `u < v`). Downed vertices
    /// remain in the vertex set but become isolated, so vertex ids are
    /// stable between the original and the survivor graph.
    pub fn survivor(
        &self,
        node_alive: impl Fn(u32) -> bool,
        mut edge_alive: impl FnMut(u32, u32) -> bool,
    ) -> Csr {
        let edges: Vec<(u32, u32)> = self
            .edges()
            .filter(|&(u, v)| node_alive(u) && node_alive(v) && edge_alive(u, v))
            .collect();
        Csr::from_edges(self.node_count(), &edges)
    }

    /// A shortest path from `src` to `dst` inclusive, or `None` if
    /// unreachable.
    pub fn shortest_path(&self, src: usize, dst: usize) -> Option<Vec<u32>> {
        let mut parent = vec![u32::MAX; self.node_count()];
        let mut seen = vec![false; self.node_count()];
        let mut q = VecDeque::new();
        seen[src] = true;
        q.push_back(src as u32);
        while let Some(u) = q.pop_front() {
            if u as usize == dst {
                let mut path = vec![u];
                let mut cur = u;
                while cur as usize != src {
                    cur = parent[cur as usize];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &w in self.neighbors(u as usize) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    parent[w as usize] = u;
                    q.push_back(w);
                }
            }
        }
        None
    }

    /// Dense index of the directed edge `u -> v` in
    /// `0..directed_edge_count()`, or `None` when `{u, v}` is not an edge.
    ///
    /// The indices enumerate each vertex's out-edges contiguously in
    /// neighbor order, so flat per-edge state (claim tables, traffic
    /// counters) can live in a `Vec` instead of a hash map keyed by
    /// `(u, v)`. The lookup binary-searches `u`'s sorted neighbor row:
    /// X-tree rows hold at most 5 targets, but a row of Theorem 4's
    /// universal graph holds up to 415, and the engine looks up one link
    /// per hop.
    #[inline]
    pub fn directed_edge_index(&self, u: u32, v: u32) -> Option<u32> {
        let s = self.offsets[u as usize] as usize;
        let e = self.offsets[u as usize + 1] as usize;
        self.targets[s..e]
            .binary_search(&v)
            .ok()
            .map(|i| (s + i) as u32)
    }

    /// Number of directed edge slots (`2 * edge_count()`).
    #[inline]
    pub fn directed_edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-edges of `v` as `(directed_edge_index, target)` pairs, in
    /// ascending target order — the zero-cost way to walk a vertex's links
    /// together with their dense indices.
    #[inline]
    pub fn out_edges(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let s = self.offsets[v] as usize;
        self.targets[s..self.offsets[v + 1] as usize]
            .iter()
            .enumerate()
            .map(move |(k, &w)| ((s + k) as u32, w))
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| (u as u32) < v)
                .map(move |&v| (u as u32, v))
        })
    }
}

impl Graph for Csr {
    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    fn edge_count(&self) -> usize {
        self.edges
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        let s = self.offsets[v] as usize;
        let e = self.offsets[v + 1] as usize;
        &self.targets[s..e]
    }

    fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Csr {
        let edges: Vec<_> = (1..n as u32).map(|v| (v - 1, v)).collect();
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn csr_basics() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.degree(2), 2);
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn bfs_on_cycle() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let d = g.bfs(0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(g.diameter(), 3);
        assert!(g.is_connected());
    }

    #[test]
    fn bounded_distance_agrees_with_bfs() {
        let g = path_graph(10);
        for s in 0..10 {
            let d = g.bfs(s);
            for t in 0..10 {
                assert_eq!(g.bounded_distance(s, t, 20), Some(d[t]));
            }
        }
        assert_eq!(g.bounded_distance(0, 9, 8), None);
        assert_eq!(g.bounded_distance(0, 9, 9), Some(9));
        assert_eq!(g.bounded_distance(4, 4, 0), Some(0));
    }

    #[test]
    fn disconnected_detection() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert_eq!(g.bounded_distance(0, 3, 10), None);
        assert_eq!(g.bfs(0)[3], u32::MAX);
    }

    #[test]
    fn shortest_path_endpoints() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let p = g.shortest_path(1, 4).unwrap();
        assert_eq!(p.first(), Some(&1));
        assert_eq!(p.last(), Some(&4));
        assert_eq!(p.len(), 3); // 1-0-4
        assert_eq!(g.shortest_path(2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn edges_iterator_unique() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), g.edge_count());
        for (u, v) in es {
            assert!(u < v);
        }
    }

    #[test]
    fn directed_edge_indices_are_dense_and_unique() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]);
        assert_eq!(g.directed_edge_count(), 2 * g.edge_count());
        let mut seen = vec![false; g.directed_edge_count()];
        for u in 0..g.node_count() as u32 {
            for &v in g.neighbors(u as usize) {
                let idx = g.directed_edge_index(u, v).unwrap() as usize;
                assert!(!seen[idx], "index {idx} reused");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(g.directed_edge_index(1, 4), None);
        assert_ne!(g.directed_edge_index(0, 1), g.directed_edge_index(1, 0));
    }

    #[test]
    fn component_ids_label_every_piece() {
        let g = Csr::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]);
        let (label, count) = g.component_ids();
        assert_eq!(count, 3);
        assert_eq!(label[0], label[1]);
        assert_eq!(label[1], label[2]);
        assert_eq!(label[3], label[4]);
        assert_eq!(label[5], label[6]);
        assert_ne!(label[0], label[3]);
        assert_ne!(label[3], label[5]);
        // Deterministic dense labels in first-vertex order.
        assert_eq!((label[0], label[3], label[5]), (0, 1, 2));
        let (single, one) = path_graph(4).component_ids();
        assert_eq!(one, 1);
        assert!(single.iter().all(|&c| c == 0));
    }

    #[test]
    fn survivor_drops_dead_edges_and_isolates_dead_nodes() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        // Kill vertex 2 and the edge {0, 4}: the cycle breaks into 0-1 and 3-4.
        let s = g.survivor(|v| v != 2, |u, v| (u, v) != (0, 4));
        assert_eq!(s.node_count(), 5);
        assert_eq!(s.edge_count(), 2);
        assert!(s.has_edge(0, 1) && s.has_edge(3, 4));
        assert_eq!(s.degree(2), 0);
        let (_, count) = s.component_ids();
        assert_eq!(count, 3); // {0,1}, {2}, {3,4}
    }

    #[test]
    #[should_panic]
    fn rejects_self_loop() {
        let _ = Csr::from_edges(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic]
    fn rejects_duplicate_edge() {
        let _ = Csr::from_edges(3, &[(0, 1), (1, 0)]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 0);
    }
}
