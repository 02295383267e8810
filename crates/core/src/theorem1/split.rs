//! The SPLIT procedure of algorithm X-TREE.
//!
//! In round `i`, every level-(i−1) vertex `α` distributes its attached
//! intervals over its two children:
//!
//! 1. **Assignment** — intervals are assigned largest-first to the lighter
//!    side (the paper's pairing rule: imbalance after assignment is at most
//!    the largest interval);
//! 2. **Fine balance** — one Lemma-2 split of the largest interval on the
//!    heavy side uses some of the leaf's free places to cut the residual
//!    imbalance to `⌊(Δ+4)/9⌋` (the paper's "4 free places");
//! 3. **Forced placements** — designated nodes whose anchors sit two levels
//!    up (condition (4) deadline) are laid out on their leaf, spilling to
//!    the nearest leaf with room when capacity demands it;
//! 4. **Fill** — each level-i leaf is topped up to exactly 16 guest nodes
//!    by absorbing whole intervals or connected "crowns" grown from
//!    designated nodes, borrowing from the nearest surplus leaf when the
//!    local mass runs short (this subsumes the paper's final rearrangement
//!    of the last two levels).

use super::state::{AttachRule, Builder, IntId};
use xtree_topology::Address;

/// Runs the full SPLIT sweep of round `i ≥ 1`.
pub(crate) fn split_phase(b: &mut Builder<'_>, i: u8) {
    let l = i - 1;
    // Pass 1: assign and fine-balance per parent vertex.
    for alpha in Address::level_iter(l) {
        assign_children(b, alpha);
    }
    // Pass 2: forced placements (condition-4 deadlines), then capacity fill.
    for leaf in Address::level_iter(i) {
        force_due_placements(b, leaf, i);
    }
    // Record nl/nh at the moment the fill is about to run: the paper's
    // estimate nl ≥ 16 is precisely "the fill finds enough local mass".
    super::trace::record_mass(b, i);
    for leaf in Address::level_iter(i) {
        fill(b, leaf, i);
    }
}

fn assign_children(b: &mut Builder<'_>, alpha: Address) {
    let c0 = alpha.child(0);
    let c1 = alpha.child(1);
    let mut ids = std::mem::take(&mut b.s.ids_buf);
    b.detach_all_into(alpha, &mut ids);
    ids.sort_unstable_by_key(|&id| std::cmp::Reverse(b.interval(id).size));
    // Side weights include nodes already placed on the children and the
    // mass pre-assigned by ADJUST.
    let mut w0 = b.count(c0) as u64 + b.attached_mass(c0);
    let mut w1 = b.count(c1) as u64 + b.attached_mass(c1);
    for &id in &ids {
        let size = b.interval(id).size as u64;
        if w0 <= w1 {
            b.attach(id, c0);
            w0 += size;
        } else {
            b.attach(id, c1);
            w1 += size;
        }
    }
    b.s.ids_buf = ids;
    // Fine balance: split the largest interval of the heavy side.
    let (heavy, light, wh, wl) = if w0 >= w1 {
        (c0, c1, w0, w1)
    } else {
        (c1, c0, w1, w0)
    };
    let delta = (wh - wl) / 2;
    if !b.opts.fine_balance || delta < 2 || b.free(heavy) < 5 || b.free(light) < 5 {
        return;
    }
    let Some((pos, id)) = b
        .att_list(heavy)
        .iter()
        .enumerate()
        .max_by_key(|&(_, &id)| b.interval(id).size)
        .map(|(p, &id)| (p, id))
    else {
        return;
    };
    let size = b.interval(id).size as u64;
    if size <= delta {
        // Cheaper to reassign the whole interval than to split it.
        b.detach_swap(heavy, pos);
        b.attach(id, light);
        return;
    }
    let mut scr = std::mem::take(&mut b.s.sep_scratch);
    let split = b
        .interval(id)
        .lemma2(&mut scr, b.tree, &b.s.placed, delta as u32);
    b.s.sep_scratch = scr;
    b.detach_swap(heavy, pos);
    b.apply_separation(id, &split, heavy, light, heavy, light);
    b.log.split_balances += 1;
}

/// Places the designated nodes of every interval on `leaf` whose deadline
/// (anchor two levels up) has arrived, spilling to the closest leaf with
/// room if `leaf` is full.
fn force_due_placements(b: &mut Builder<'_>, leaf: Address, i: u8) {
    let mut due = std::mem::take(&mut b.s.due_buf);
    due.clear();
    due.extend(
        b.att_list(leaf)
            .iter()
            .copied()
            .filter(|&id| b.interval(id).min_anchor_level() + 2 <= i),
    );
    if due.is_empty() {
        b.s.due_buf = due;
        return;
    }
    // Order-preserving removal (`retain`), as the legacy builder did: the
    // residual list order feeds later tie-breaks.
    b.detach_retain(leaf, &due);
    for &id in &due {
        let k = b.interval(id).designated.len() as u16;
        let size = b.interval(id).size;
        let target = nearest_with_room(b, leaf, k, i);
        if target != leaf {
            b.log.spills += 1;
        }
        if size == u32::from(k) {
            // The fragment IS its designated set: absorb it outright.
            b.absorb_interval(id, target);
        } else {
            let iv = b.remove_interval(id);
            let mut nodes = std::mem::take(&mut b.s.newly_buf);
            nodes.clear();
            nodes.extend(iv.designated.iter().map(|&(d, _)| d));
            for &d in &nodes {
                b.place(d, target);
            }
            b.rebuild_components(&nodes, &iv.designated, AttachRule::Fixed(target));
            b.s.newly_buf = nodes;
        }
        b.log.forced_placements += k as usize;
    }
    b.s.due_buf = due;
}

/// The closest level-i leaf (by horizontal offset from `leaf`) with at
/// least `k` free slots. Panics if the whole level is full (cannot happen
/// while un-placed mass remains: capacity ≥ mass at every round).
fn nearest_with_room(b: &Builder<'_>, leaf: Address, k: u16, i: u8) -> Address {
    if b.free(leaf) >= k {
        return leaf;
    }
    let width = 1i64 << i;
    for d in 1..width {
        for cand in [leaf.offset(-d), leaf.offset(d)].into_iter().flatten() {
            if b.free(cand) >= k {
                return cand;
            }
        }
    }
    panic!("no capacity left on level {i} for {k} nodes");
}

/// Tops `leaf` up to exactly 16 guest nodes.
fn fill(b: &mut Builder<'_>, leaf: Address, i: u8) {
    while b.free(leaf) > 0 {
        let need = b.free(leaf) as u64;
        let Some((src, id, hops)) = find_source(b, leaf, i) else {
            // No un-placed mass reachable: legitimate only when the guest
            // is smaller than the host's capacity (non-exact sizes).
            return;
        };
        if hops > 0 {
            b.log.borrows += 1;
            b.log.max_borrow_hops = b.log.max_borrow_hops.max(hops);
        }
        // How much we may take from that source without starving it.
        let amount = if hops == 0 {
            need
        } else {
            let surplus = b.attached_mass(src).saturating_sub(b.free(src) as u64);
            need.min(surplus)
        };
        debug_assert!(amount >= 1);
        let size = b.interval(id).size as u64;
        let pos = b.att_list(src).iter().position(|&x| x == id).unwrap();
        b.detach_swap(src, pos);
        if size <= amount {
            b.absorb_interval(id, leaf);
            b.log.fills += size as usize;
        } else {
            b.take_crown(id, amount as u32, leaf, src);
            b.log.fills += amount as usize;
        }
    }
}

/// Finds an interval to fill from: first the leaf's own attachments, then
/// the nearest leaf (horizontally) whose attached mass exceeds its own
/// remaining need. Returns `(source leaf, interval, hops)`. The surplus
/// scan reads the O(1) mass cache, so a borrow probe costs a lookup, not
/// a list walk.
fn find_source(b: &Builder<'_>, leaf: Address, i: u8) -> Option<(Address, IntId, u32)> {
    if let Some(id) = pick(b, leaf, u64::MAX) {
        return Some((leaf, id, 0));
    }
    let width = 1i64 << i;
    for d in 1..width {
        for cand in [leaf.offset(-d), leaf.offset(d)].into_iter().flatten() {
            let surplus = b.attached_mass(cand).saturating_sub(b.free(cand) as u64);
            if surplus == 0 {
                continue;
            }
            if let Some(id) = pick(b, cand, surplus) {
                return Some((cand, id, d as u32));
            }
        }
    }
    None
}

/// Picks an interval attached to `src`: prefer the largest one that fits
/// entirely within `budget` (clean absorption), otherwise the smallest
/// (crown it, leaving the rest in place).
fn pick(b: &Builder<'_>, src: Address, budget: u64) -> Option<IntId> {
    let ids = b.att_list(src);
    if ids.is_empty() {
        return None;
    }
    ids.iter()
        .copied()
        .filter(|&id| b.interval(id).size as u64 <= budget)
        .max_by_key(|&id| b.interval(id).size)
        .or_else(|| ids.iter().copied().min_by_key(|&id| b.interval(id).size))
}
