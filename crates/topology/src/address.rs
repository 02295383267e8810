//! Binary-string addresses for tree-structured networks.
//!
//! The paper (Monien, SPAA '91) addresses the vertices of the X-tree `X(r)`
//! by *binary strings of length at most `r`*: the empty string `ε` is the
//! root, and a string `x` of length `i` has children `x0` and `x1` on level
//! `i + 1`. `binary(x)` is the integer the string represents, so the
//! horizontal ("cross") edges connect `x` with `successor(x)` — the unique
//! string of the same length with `binary(successor(x)) = binary(x) + 1`.
//!
//! [`Address`] stores such a string as its heap-order id (the root is 0,
//! and the children of `h` are `2h + 1` and `2h + 2`), supporting strings
//! of up to 60 bits — far more than any host network that fits in memory.
//! One `u64` is the whole address: `heap_id` and `from_heap_id` cost
//! nothing, and the level and the position within it are one bit scan
//! away.

use std::fmt;

/// Maximum supported string length. `4^60` leaves is unreachable in memory,
/// so this is not a practical restriction; it keeps every heap id in a
/// `u64` with headroom for arithmetic.
pub const MAX_LEN: u8 = 60;

/// A binary string of bounded length, i.e. a vertex address in a complete
/// binary tree or X-tree.
///
/// Ordered first by length (level), then by `binary(x)` — exactly the
/// left-to-right, top-to-bottom reading order of the tree levels, which
/// is the order of the heap ids it holds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address {
    /// The heap-order id `2^len − 1 + binary(x)`. `id + 1` is the string
    /// with a leading `1` prepended, so its bit length gives the level.
    id: u64,
}

impl Address {
    /// The empty string `ε` (the root).
    pub const ROOT: Address = Address { id: 0 };

    /// The address of heap id `tag − 1`, for `tag` the string read as a
    /// binary number behind a leading `1`.
    #[inline]
    fn tagged(tag: u64) -> Address {
        Address { id: tag - 1 }
    }

    /// The string behind a leading `1`: `2^len + binary(x)`.
    #[inline]
    fn tag(self) -> u64 {
        self.id + 1
    }

    /// Builds an address from a level and the integer value of the string.
    ///
    /// # Panics
    /// Panics if `bits >= 2^len` or `len > MAX_LEN`.
    #[inline]
    pub fn new(len: u8, bits: u64) -> Self {
        assert!(len <= MAX_LEN, "address length {len} exceeds MAX_LEN");
        assert!(
            bits < (1u64 << len),
            "bits {bits} do not fit in a string of length {len}"
        );
        Address::tagged((1u64 << len) | bits)
    }

    /// Parses a string of `'0'`/`'1'` characters; the empty string is the root.
    pub fn parse(s: &str) -> Option<Self> {
        if s == "ε" {
            return Some(Self::ROOT);
        }
        if s.len() > MAX_LEN as usize {
            return None;
        }
        let mut tag = 1u64;
        for c in s.chars() {
            match c {
                '0' => tag <<= 1,
                '1' => tag = (tag << 1) | 1,
                _ => return None,
            }
        }
        Some(Address::tagged(tag))
    }

    /// The string length, i.e. the level of the vertex (root = 0).
    #[inline]
    pub fn level(self) -> u8 {
        self.tag().ilog2() as u8
    }

    /// `binary(x)`: the integer this string denotes, i.e. the position of the
    /// vertex within its level, counted from the left starting at 0.
    #[inline]
    pub fn index(self) -> u64 {
        self.tag() - (1u64 << self.level())
    }

    /// Number of vertices on this address's level (`2^len`).
    #[inline]
    pub fn level_width(self) -> u64 {
        1u64 << self.level()
    }

    /// True for the root `ε`.
    #[inline]
    pub fn is_root(self) -> bool {
        self.id == 0
    }

    /// The parent string (drops the last symbol); `None` for the root.
    #[inline]
    pub fn parent(self) -> Option<Address> {
        if self.id == 0 {
            None
        } else {
            Some(Address::tagged(self.tag() >> 1))
        }
    }

    /// The child `x·b` for `b ∈ {0, 1}`.
    ///
    /// # Panics
    /// Panics if the result would exceed [`MAX_LEN`] or `b > 1`.
    #[inline]
    pub fn child(self, b: u8) -> Address {
        assert!(b <= 1, "child bit must be 0 or 1");
        assert!(self.level() < MAX_LEN, "address too long");
        Address {
            id: 2 * self.id + 1 + u64::from(b),
        }
    }

    /// Both children, left then right.
    #[inline]
    pub fn children(self) -> [Address; 2] {
        [self.child(0), self.child(1)]
    }

    /// `successor(x)`: the next string of the same length in left-to-right
    /// order, if any. This is the other endpoint of the horizontal X-tree
    /// edge leaving `x` to the right.
    #[inline]
    pub fn successor(self) -> Option<Address> {
        if self.is_rightmost() {
            None
        } else {
            Some(Address { id: self.id + 1 })
        }
    }

    /// The previous string of the same length, if any.
    #[inline]
    pub fn predecessor(self) -> Option<Address> {
        if self.is_leftmost() {
            None
        } else {
            Some(Address { id: self.id - 1 })
        }
    }

    /// Moves `delta` positions within the level, staying in bounds.
    #[inline]
    pub fn offset(self, delta: i64) -> Option<Address> {
        let idx = self.index() as i64 + delta;
        if idx < 0 || idx as u64 >= self.level_width() {
            None
        } else {
            Some(Address {
                id: self.id.wrapping_add_signed(delta),
            })
        }
    }

    /// True if this is the all-zeros string `0^len` (leftmost on its level).
    #[inline]
    pub fn is_leftmost(self) -> bool {
        self.tag().is_power_of_two()
    }

    /// True if this is the all-ones string `1^len` (rightmost on its level).
    #[inline]
    pub fn is_rightmost(self) -> bool {
        (self.id + 2).is_power_of_two()
    }

    /// Appends `count` copies of bit `b`: `x · b^count`.
    pub fn extend(self, b: u8, count: u8) -> Address {
        let mut a = self;
        for _ in 0..count {
            a = a.child(b);
        }
        a
    }

    /// Concatenates another string onto this one: `x · y`.
    pub fn concat(self, suffix: Address) -> Address {
        let len = suffix.level();
        assert!(
            self.level() + len <= MAX_LEN,
            "concatenated address too long"
        );
        Address::tagged((self.tag() << len) | suffix.index())
    }

    /// The ancestor at `level`; `None` if `level > self.level()`.
    #[inline]
    pub fn ancestor_at(self, level: u8) -> Option<Address> {
        let len = self.level();
        if level > len {
            None
        } else {
            Some(Address::tagged(self.tag() >> (len - level)))
        }
    }

    /// True if `self` is an ancestor of (or equal to) `other`.
    #[inline]
    pub fn is_ancestor_of(self, other: Address) -> bool {
        other.ancestor_at(self.level()) == Some(self)
    }

    /// The leftmost descendant of `self` on `level` (appends `0`s).
    #[inline]
    pub fn leftmost_descendant(self, level: u8) -> Address {
        assert!(level >= self.level());
        self.extend(0, level - self.level())
    }

    /// The rightmost descendant of `self` on `level` (appends `1`s).
    #[inline]
    pub fn rightmost_descendant(self, level: u8) -> Address {
        assert!(level >= self.level());
        self.extend(1, level - self.level())
    }

    /// Heap-order id: addresses enumerated level by level, left to right.
    /// The root is 0; level `l` occupies ids `2^l − 1 .. 2^{l+1} − 1`.
    #[inline]
    pub fn heap_id(self) -> usize {
        self.id as usize
    }

    /// Inverse of [`heap_id`](Self::heap_id).
    #[inline]
    pub fn from_heap_id(id: usize) -> Address {
        Address { id: id as u64 }
    }

    /// Iterates over all addresses of length exactly `len`, left to right.
    pub fn level_iter(len: u8) -> impl Iterator<Item = Address> {
        ((1u64 << len) - 1..(2u64 << len) - 1).map(|id| Address { id })
    }

    /// Iterates over all addresses of length at most `max_len`, in heap order.
    pub fn all_up_to(max_len: u8) -> impl Iterator<Item = Address> {
        (0..(2u64 << max_len) - 1).map(|id| Address { id })
    }

    /// The individual bits, most significant (first symbol) first.
    pub fn bits_msb_first(self) -> impl Iterator<Item = u8> {
        let (len, bits) = (self.level(), self.index());
        (0..len).map(move |i| ((bits >> (len - 1 - i)) & 1) as u8)
    }

    /// Distance in the *complete binary tree* (no horizontal edges): up to
    /// the lowest common ancestor and back down.
    pub fn tree_distance(self, other: Address) -> u32 {
        let common = self.lca(other).level();
        u32::from(self.level() - common) + u32::from(other.level() - common)
    }

    /// Lowest common ancestor in the complete binary tree: the longest
    /// common prefix of the two strings.
    pub fn lca(self, other: Address) -> Address {
        let top = self.level().min(other.level());
        let (a, b) = (
            self.ancestor_at(top).unwrap().tag(),
            other.ancestor_at(top).unwrap().tag(),
        );
        // Both tags have bit length `top + 1`; they agree above their
        // highest differing bit.
        let differ = u64::BITS - (a ^ b).leading_zeros();
        Address::tagged(a >> differ)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, "ε");
        }
        for b in self.bits_msb_first() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        let r = Address::ROOT;
        assert_eq!(r.level(), 0);
        assert_eq!(r.index(), 0);
        assert!(r.is_root());
        assert!(r.is_leftmost());
        assert!(r.is_rightmost());
        assert_eq!(r.parent(), None);
        assert_eq!(r.successor(), None);
        assert_eq!(r.predecessor(), None);
        assert_eq!(r.heap_id(), 0);
        assert_eq!(format!("{r}"), "ε");
    }

    #[test]
    fn an_address_is_its_heap_id() {
        assert_eq!(std::mem::size_of::<Address>(), 8);
        assert_eq!(std::mem::size_of::<Option<Address>>(), 16);
        let a = Address::parse("0110").unwrap();
        assert_eq!(a.heap_id(), (1 << 4) - 1 + 0b0110);
        assert_eq!(Address::from_heap_id(a.heap_id()), a);
    }

    #[test]
    fn parse_round_trips() {
        for s in ["0", "1", "01", "10", "1101", "000", "111111"] {
            let a = Address::parse(s).unwrap();
            assert_eq!(format!("{a}"), s);
        }
        assert_eq!(Address::parse("ε"), Some(Address::ROOT));
        assert_eq!(Address::parse(""), Some(Address::ROOT));
        assert_eq!(Address::parse("012"), None);
    }

    #[test]
    fn children_and_parent() {
        let a = Address::parse("10").unwrap();
        assert_eq!(a.child(0), Address::parse("100").unwrap());
        assert_eq!(a.child(1), Address::parse("101").unwrap());
        assert_eq!(a.child(1).parent(), Some(a));
        assert_eq!(a.children()[0].index(), 4);
    }

    #[test]
    fn successor_matches_binary_plus_one() {
        // successor(x) is defined only when binary(x) < 2^|x| − 1.
        for len in 1..=6u8 {
            for a in Address::level_iter(len) {
                match a.successor() {
                    Some(s) => {
                        assert_eq!(s.level(), len);
                        assert_eq!(s.index(), a.index() + 1);
                        assert_eq!(s.predecessor(), Some(a));
                    }
                    None => assert!(a.is_rightmost()),
                }
            }
        }
    }

    #[test]
    fn heap_id_round_trips() {
        for id in 0..1023usize {
            assert_eq!(Address::from_heap_id(id).heap_id(), id);
        }
        // Heap order equals (level, index) lexicographic order.
        let mut prev = None;
        for a in Address::all_up_to(6) {
            if let Some(p) = prev {
                assert!(a > p);
                assert_eq!(a.heap_id(), Address::heap_id(p) + 1);
            }
            prev = Some(a);
        }
    }

    #[test]
    fn level_iter_counts() {
        for len in 0..=10u8 {
            assert_eq!(Address::level_iter(len).count() as u64, 1 << len);
        }
        assert_eq!(Address::all_up_to(4).count(), 31);
    }

    #[test]
    fn extend_and_descendants() {
        let a = Address::parse("01").unwrap();
        assert_eq!(a.extend(1, 3), Address::parse("01111").unwrap());
        assert_eq!(a.leftmost_descendant(4), Address::parse("0100").unwrap());
        assert_eq!(a.rightmost_descendant(4), Address::parse("0111").unwrap());
        assert_eq!(a.leftmost_descendant(2), a);
    }

    #[test]
    fn concat_appends() {
        let a = Address::parse("01").unwrap();
        let b = Address::parse("110").unwrap();
        assert_eq!(a.concat(b), Address::parse("01110").unwrap());
        assert_eq!(a.concat(Address::ROOT), a);
        assert_eq!(Address::ROOT.concat(b), b);
    }

    #[test]
    fn ancestors() {
        let a = Address::parse("10110").unwrap();
        assert_eq!(a.ancestor_at(0), Some(Address::ROOT));
        assert_eq!(a.ancestor_at(2), Address::parse("10"));
        assert_eq!(a.ancestor_at(5), Some(a));
        assert_eq!(a.ancestor_at(6), None);
        assert!(Address::parse("10").unwrap().is_ancestor_of(a));
        assert!(!Address::parse("11").unwrap().is_ancestor_of(a));
        assert!(a.is_ancestor_of(a));
    }

    #[test]
    fn lca_and_tree_distance() {
        let a = Address::parse("000").unwrap();
        let b = Address::parse("001").unwrap();
        assert_eq!(a.lca(b), Address::parse("00").unwrap());
        assert_eq!(a.tree_distance(b), 2);
        let c = Address::parse("111").unwrap();
        assert_eq!(a.lca(c), Address::ROOT);
        assert_eq!(a.tree_distance(c), 6);
        assert_eq!(a.tree_distance(a), 0);
        assert_eq!(Address::ROOT.tree_distance(c), 3);
    }

    #[test]
    fn offset_moves_within_level() {
        let a = Address::parse("010").unwrap(); // index 2 of 8
        assert_eq!(a.offset(3), Address::parse("101"));
        assert_eq!(a.offset(-2), Address::parse("000"));
        assert_eq!(a.offset(-3), None);
        assert_eq!(a.offset(6), None);
        assert_eq!(a.offset(0), Some(a));
    }

    #[test]
    #[should_panic]
    fn new_rejects_oversized_bits() {
        let _ = Address::new(2, 4);
    }
}
