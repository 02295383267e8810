//! The neighbourhood `N(a)` from Figure 2 of the paper.
//!
//! For a vertex `a` of the X-tree `X(i)`, `N(a)` is the set of vertices
//! reachable from `a` by a path consisting of
//!
//! * at most **three horizontal** edges, or
//! * at most **two downward** edges followed by at most **two horizontal**
//!   edges.
//!
//! Condition (3′) of the Theorem-1 construction guarantees that for every
//! tree edge `{u, v}` with `|δ(u)| ≤ |δ(v)|`, the deeper image lies in
//! `N(δ(u))`. The paper notes two counting facts that drive the Theorem-4
//! universal graph: `|N(a) − {a}| ≤ 20`, and there are at most 5 vertices
//! `β` with `a ∈ N(β)` but `β ∉ N(a)` — hence degree `25·16 + 15 = 415`.

use crate::address::Address;

/// Computes `N(a)` inside `X(height)`, including `a` itself.
///
/// The result is sorted (level, index) and duplicate-free.
pub fn neighborhood(a: Address, height: u8) -> Vec<Address> {
    assert!(a.level() <= height);
    let mut out = Vec::with_capacity(21);
    // ≤ 3 horizontal moves (either direction) on a's own level.
    for delta in -3i64..=3 {
        if let Some(b) = a.offset(delta) {
            out.push(b);
        }
    }
    // 1 downward edge, then ≤ 2 horizontal moves. The two children are
    // horizontally adjacent, so the union is a contiguous window of the
    // child level: indices 2·idx − 2 ..= 2·idx + 3.
    if a.level() < height {
        let c = a.child(0);
        for delta in -2i64..=3 {
            if let Some(b) = c.offset(delta) {
                out.push(b);
            }
        }
    }
    // 2 downward edges, then ≤ 2 horizontal moves: the grandchildren occupy
    // indices 4·idx .. 4·idx + 3, so the window is 4·idx − 2 ..= 4·idx + 5.
    if a.level() + 2 <= height {
        let g = a.child(0).child(0);
        for delta in -2i64..=5 {
            if let Some(b) = g.offset(delta) {
                out.push(b);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The vertices `β ≠ a` with `a ∈ N(β)` but `β ∉ N(a)` — the "asymmetric
/// in-neighbours" of `a` (at most 5, per the paper).
pub fn inverse_only(a: Address, height: u8) -> Vec<Address> {
    let n_a = neighborhood(a, height);
    let mut out = Vec::new();
    // β must be on a's level (symmetric — excluded), one level up, or two
    // levels up; enumerate the candidate windows directly.
    for up in 1..=2u8 {
        if a.level() < up {
            continue;
        }
        let anc = a.ancestor_at(a.level() - up).unwrap();
        // β on that level with a inside β's window: scan a small range
        // around the ancestor.
        for delta in -4i64..=4 {
            let Some(beta) = anc.offset(delta) else {
                continue;
            };
            if beta == a || n_a.binary_search(&beta).is_ok() {
                continue;
            }
            if neighborhood(beta, height).binary_search(&a).is_ok() {
                out.push(beta);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// True if `b ∈ N(a)` within `X(height)`.
///
/// The closed form of [`neighborhood`]'s three windows, with `i` the
/// index of `a`: `b` is on `a`'s level with `|Δindex| ≤ 3`, one level
/// down with index in `2i − 2 ..= 2i + 3`, or two levels down with index
/// in `4i − 2 ..= 4i + 5`. No allocation, so `evaluate` can test every
/// guest edge.
pub fn in_neighborhood(a: Address, b: Address, height: u8) -> bool {
    if b.level() > height {
        return false;
    }
    let (i, j) = (a.index(), b.index());
    match b.level().checked_sub(a.level()) {
        Some(0) => i.abs_diff(j) <= 3,
        Some(1) => j + 2 >= 2 * i && j <= 2 * i + 3,
        Some(2) => j + 2 >= 4 * i && j <= 4 * i + 5,
        _ => false,
    }
}

/// Exhaustively verifies the two Figure-2 counting facts over all of
/// `X(height)`, returning the observed maxima `(max |N(a) − {a}|,
/// max #inverse-only)`.
pub fn verify_figure2(height: u8) -> (usize, usize) {
    let mut max_n = 0;
    let mut max_inv = 0;
    for a in Address::all_up_to(height) {
        let n = neighborhood(a, height).len() - 1;
        let inv = inverse_only(a, height).len();
        max_n = max_n.max(n);
        max_inv = max_inv.max(inv);
    }
    (max_n, max_inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xtree::XTree;
    use std::collections::BTreeSet;

    /// Brute-force N(a) straight from the definition, by walking edges.
    fn slow_neighborhood(a: Address, height: u8) -> BTreeSet<Address> {
        let mut out = BTreeSet::new();
        // ≤ 3 horizontal.
        let mut frontier = vec![a];
        out.insert(a);
        for _ in 0..3 {
            let mut next = Vec::new();
            for v in frontier {
                for w in [v.predecessor(), v.successor()].into_iter().flatten() {
                    if out.insert(w) {
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        // ≤ 2 down then ≤ 2 horizontal.
        let mut downs = vec![a];
        for _ in 0..2 {
            let mut next = Vec::new();
            for v in &downs {
                if v.level() < height {
                    next.extend(v.children());
                }
            }
            for d in &next {
                out.insert(*d);
                let mut l = *d;
                let mut r = *d;
                for _ in 0..2 {
                    if let Some(p) = l.predecessor() {
                        out.insert(p);
                        l = p;
                    }
                    if let Some(s) = r.successor() {
                        out.insert(s);
                        r = s;
                    }
                }
            }
            downs = next;
        }
        out
    }

    #[test]
    fn fast_matches_brute_force() {
        for height in 0..=6u8 {
            for a in Address::all_up_to(height) {
                let fast: BTreeSet<_> = neighborhood(a, height).into_iter().collect();
                let slow = slow_neighborhood(a, height);
                assert_eq!(fast, slow, "N({a}) in X({height})");
            }
        }
    }

    #[test]
    fn closed_form_membership_matches_the_enumeration() {
        for height in 0..=8u8 {
            for a in Address::all_up_to(height) {
                let n = neighborhood(a, height);
                for b in Address::all_up_to(height) {
                    assert_eq!(
                        in_neighborhood(a, b, height),
                        n.binary_search(&b).is_ok(),
                        "{b} ∈ N({a}) in X({height})"
                    );
                }
            }
        }
    }

    #[test]
    fn figure2_bounds() {
        // |N(a) − {a}| ≤ 20 and at most 5 asymmetric in-neighbours — and both
        // bounds are attained for interior vertices of a large enough X-tree.
        let (max_n, max_inv) = verify_figure2(8);
        assert_eq!(max_n, 20);
        assert_eq!(max_inv, 5);
        for height in 0..=7u8 {
            let (n, i) = verify_figure2(height);
            assert!(n <= 20 && i <= 5, "X({height}): {n}, {i}");
        }
    }

    #[test]
    fn members_are_close_in_the_xtree() {
        // Everything in N(a) is within X-tree distance 4 of a (3 horizontal,
        // or 2 down + 2 horizontal), so dilation-3 claims route through it.
        let height = 6;
        let x = XTree::new(height);
        for a in Address::all_up_to(height).step_by(3) {
            for b in neighborhood(a, height) {
                assert!(x.distance(a, b) <= 4, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn neighborhood_contains_self_children_grandchildren() {
        let a = Address::parse("01").unwrap();
        let n = neighborhood(a, 5);
        for b in ["01", "010", "011", "0100", "0111", "00", "10", "11"] {
            let b = Address::parse(b).unwrap();
            assert!(n.binary_search(&b).is_ok(), "missing {b}");
        }
        // Parent is NOT in N(a): no upward moves.
        assert!(n.binary_search(&Address::parse("0").unwrap()).is_err());
    }

    #[test]
    fn universal_degree_constant() {
        // 25 · 16 + 15 = 415: |N(a) ∪ inverse_only(a)| − {a} ≤ 25.
        for a in Address::all_up_to(7) {
            let total = neighborhood(a, 7).len() - 1 + inverse_only(a, 7).len();
            assert!(total <= 25, "{a}: {total}");
        }
    }
}
