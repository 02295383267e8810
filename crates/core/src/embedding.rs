//! Embedding types: mappings from guest-tree nodes to host vertices.
//!
//! An *embedding* assigns every vertex of the guest binary tree to a vertex
//! of the host network. Following the paper:
//!
//! * its **dilation** is the maximum host distance between images of
//!   adjacent guest nodes ("the number of clock cycles needed in the X-tree
//!   network to communicate between formerly adjacent processors");
//! * its **load factor** is the maximum number of guest nodes mapped to one
//!   host vertex;
//! * its **expansion** is `|host| / |guest|`.

use xtree_topology::Address;
use xtree_trees::{BinaryTree, NodeId};

/// An embedding of a binary tree into an X-tree of a given height.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XEmbedding {
    /// Height of the host X-tree.
    pub height: u8,
    /// Heap id ([`Address::heap_id`]) of each guest node's image, indexed
    /// by [`NodeId`]; [`Self::image`] decodes one back to its address.
    ///
    /// Ids take 4 bytes per guest node where an [`Address`] takes 16, and
    /// a cached embedding is mostly this vector. `X(r)` has ids below
    /// `2^{r+1} − 1`, so they fit in `u32` for every `r ≤ 31`. No X-tree
    /// here is taller than `X(24)`
    /// ([`XTREE_MAX_HEIGHT`](xtree_topology::XTREE_MAX_HEIGHT), which
    /// `XTree::new` asserts), and Theorem 2 adds 4 levels to a Theorem-1
    /// host.
    pub map: Vec<u32>,
}

impl XEmbedding {
    /// The image of `v`.
    #[inline]
    pub fn image(&self, v: NodeId) -> Address {
        Address::from_heap_id(self.map[v.index()] as usize)
    }

    /// Number of guest nodes.
    pub fn guest_len(&self) -> usize {
        self.map.len()
    }

    /// Number of host vertices (`2^{height+1} − 1`).
    pub fn host_len(&self) -> usize {
        (1usize << (self.height + 1)) - 1
    }

    /// Checks that every image fits inside the host; panics otherwise.
    pub fn validate(&self) {
        let host_len = self.host_len();
        for (i, &id) in self.map.iter().enumerate() {
            assert!(
                (id as usize) < host_len,
                "node {i} mapped to {}, below X({})",
                Address::from_heap_id(id as usize),
                self.height
            );
        }
    }

    /// Guest nodes per host vertex, indexed by heap id.
    pub fn load_vector(&self) -> Vec<u32> {
        let mut load = vec![0u32; self.host_len()];
        for &id in &self.map {
            load[id as usize] += 1;
        }
        load
    }

    /// Maximum load over host vertices.
    pub fn max_load(&self) -> u32 {
        self.load_vector().into_iter().max().unwrap_or(0)
    }

    /// True if no two guest nodes share a host vertex.
    pub fn is_injective(&self) -> bool {
        self.max_load() <= 1
    }

    /// Expansion `|host| / |guest|`.
    pub fn expansion(&self) -> f64 {
        self.host_len() as f64 / self.guest_len() as f64
    }
}

/// An embedding of a binary tree into a hypercube of a given dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QEmbedding {
    /// Dimension of the host hypercube.
    pub dim: u8,
    /// Image of each guest node (a `dim`-bit label), indexed by [`NodeId`].
    pub map: Vec<u64>,
}

impl QEmbedding {
    /// The image of `v`.
    #[inline]
    pub fn image(&self, v: NodeId) -> u64 {
        self.map[v.index()]
    }

    /// Number of host vertices (`2^dim`).
    pub fn host_len(&self) -> usize {
        1usize << self.dim
    }

    /// Dilation: maximum Hamming distance across guest edges. Exact and
    /// cheap — no search needed on the hypercube.
    pub fn dilation(&self, tree: &BinaryTree) -> u32 {
        tree.edges()
            .map(|(u, v)| (self.map[u.index()] ^ self.map[v.index()]).count_ones())
            .max()
            .unwrap_or(0)
    }

    /// Guest nodes per host vertex.
    pub fn load_vector(&self) -> Vec<u32> {
        let mut load = vec![0u32; self.host_len()];
        for &x in &self.map {
            load[x as usize] += 1;
        }
        load
    }

    /// Maximum load over host vertices.
    pub fn max_load(&self) -> u32 {
        self.load_vector().into_iter().max().unwrap_or(0)
    }

    /// True if no two guest nodes share a host vertex.
    pub fn is_injective(&self) -> bool {
        self.max_load() <= 1
    }

    /// Expansion `|host| / |guest|`.
    pub fn expansion(&self) -> f64 {
        self.host_len() as f64 / self.map.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_trees::generate;

    #[test]
    fn xembedding_basics() {
        // 3 nodes onto X(1): root at ε, children at 0 and 1.
        let e = XEmbedding {
            height: 1,
            map: vec![0, 1, 2],
        };
        e.validate();
        assert_eq!(e.image(NodeId(0)), Address::ROOT);
        assert_eq!(e.image(NodeId(1)), Address::parse("0").unwrap());
        assert_eq!(e.image(NodeId(2)), Address::parse("1").unwrap());
        assert_eq!(e.host_len(), 3);
        assert!(e.is_injective());
        assert_eq!(e.max_load(), 1);
        assert!((e.expansion() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_counts_multiplicity() {
        let a = Address::parse("0").unwrap();
        let id = a.heap_id() as u32;
        let e = XEmbedding {
            height: 1,
            map: vec![id, id, id, 0],
        };
        assert_eq!(e.max_load(), 3);
        assert!(!e.is_injective());
        let lv = e.load_vector();
        assert_eq!(lv[a.heap_id()], 3);
        assert_eq!(lv[Address::ROOT.heap_id()], 1);
    }

    #[test]
    #[should_panic(expected = "below X(1)")]
    fn validate_rejects_deep_addresses() {
        let e = XEmbedding {
            height: 1,
            map: vec![Address::parse("00").unwrap().heap_id() as u32],
        };
        e.validate();
    }

    #[test]
    fn qembedding_dilation_exact() {
        // Path 0-1-2 mapped to labels 00, 01, 11: both edges flip one bit.
        let t = generate::path(3);
        let e = QEmbedding {
            dim: 2,
            map: vec![0b00, 0b01, 0b11],
        };
        assert_eq!(e.dilation(&t), 1);
        assert!(e.is_injective());
        // Remap node 2 to 00: dilation via 01->00 is 1, load 2 at vertex 0.
        let e2 = QEmbedding {
            dim: 2,
            map: vec![0b00, 0b01, 0b00],
        };
        assert_eq!(e2.max_load(), 2);
        assert_eq!(e2.dilation(&t), 1);
    }
}
