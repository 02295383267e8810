//! The heap-id [`Address`] against a `(len, bits)` reference model: the
//! string as its length and its value, with every operation spelled out
//! on those two fields. Every address up to level 10 is checked, and
//! seeded ones up to [`MAX_LEN`].

use std::cmp::Ordering;
use xtree_topology::Address;

/// The longest string an `Address` holds (`address::MAX_LEN`).
const MAX_LEN: u8 = 60;

/// A binary string as its length and the integer it denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Model {
    len: u8,
    bits: u64,
}

impl Model {
    fn of(a: Address) -> Model {
        let m = Model {
            len: a.level(),
            bits: a.index(),
        };
        assert!(m.len <= MAX_LEN && m.bits < 1u64 << m.len, "{a}: {m:?}");
        m
    }

    fn addr(self) -> Address {
        Address::new(self.len, self.bits)
    }

    fn parent(self) -> Option<Model> {
        (self.len > 0).then(|| Model {
            len: self.len - 1,
            bits: self.bits >> 1,
        })
    }

    fn child(self, b: u8) -> Model {
        Model {
            len: self.len + 1,
            bits: (self.bits << 1) | u64::from(b),
        }
    }

    fn successor(self) -> Option<Model> {
        (self.len > 0 && self.bits + 1 < 1u64 << self.len).then(|| Model {
            len: self.len,
            bits: self.bits + 1,
        })
    }

    fn offset(self, delta: i64) -> Option<Model> {
        let idx = self.bits as i64 + delta;
        (idx >= 0 && (idx as u64) < 1u64 << self.len).then_some(Model {
            len: self.len,
            bits: idx as u64,
        })
    }

    fn ancestor_at(self, level: u8) -> Option<Model> {
        (level <= self.len).then(|| Model {
            len: level,
            bits: self.bits >> (self.len - level),
        })
    }

    /// Climbs both strings to equal length, then together until they meet.
    fn lca(self, other: Model) -> Model {
        let (mut a, mut b) = (self, other);
        while a.len > b.len {
            a = a.parent().unwrap();
        }
        while b.len > a.len {
            b = b.parent().unwrap();
        }
        while a != b {
            a = a.parent().unwrap();
            b = b.parent().unwrap();
        }
        a
    }

    fn tree_distance(self, other: Model) -> u32 {
        let c = self.lca(other);
        u32::from(self.len - c.len) + u32::from(other.len - c.len)
    }

    /// Level first, then position within the level.
    fn cmp(self, other: Model) -> Ordering {
        (self.len, self.bits).cmp(&(other.len, other.bits))
    }

    fn string(self) -> String {
        if self.len == 0 {
            return "ε".to_string();
        }
        (0..self.len)
            .map(|i| char::from(b'0' + (self.bits >> (self.len - 1 - i) & 1) as u8))
            .collect()
    }
}

/// Every single-address operation of `a` against the model.
fn check_one(a: Address) {
    let m = Model::of(a);
    assert_eq!(m.addr(), a, "new(level, index) rebuilds {a}");
    assert_eq!(Address::from_heap_id(a.heap_id()), a);
    assert_eq!(
        a.heap_id() as u64,
        (1u64 << m.len) - 1 + m.bits,
        "heap id of {a}"
    );
    assert_eq!(a.is_root(), m.len == 0);
    assert_eq!(a.parent().map(Model::of), m.parent(), "parent of {a}");
    if m.len < MAX_LEN {
        for b in 0..2 {
            assert_eq!(Model::of(a.child(b)), m.child(b), "child {b} of {a}");
        }
    }
    assert_eq!(
        a.successor().map(Model::of),
        m.successor(),
        "successor of {a}"
    );
    assert_eq!(
        a.predecessor().map(Model::of),
        m.offset(-1),
        "predecessor of {a}"
    );
    assert_eq!(a.is_leftmost(), m.bits == 0, "{a}");
    assert_eq!(a.is_rightmost(), m.bits + 1 == 1u64 << m.len, "{a}");
    let width = 1i64 << m.len.min(62);
    for delta in [-width, -3, -1, 0, 1, 2, 5, width - 1, width] {
        assert_eq!(
            a.offset(delta).map(Model::of),
            m.offset(delta),
            "offset {delta} of {a}"
        );
    }
    for level in [0, m.len / 2, m.len.saturating_sub(1), m.len, m.len + 1] {
        assert_eq!(
            a.ancestor_at(level).map(Model::of),
            m.ancestor_at(level),
            "ancestor of {a} at {level}"
        );
    }
    let shown = a.to_string();
    assert_eq!(shown, m.string());
    assert_eq!(Address::parse(&shown), Some(a), "parse ∘ display of {a}");
}

/// Every two-address operation against the model.
fn check_pair(a: Address, b: Address) {
    let (ma, mb) = (Model::of(a), Model::of(b));
    assert_eq!(Model::of(a.lca(b)), ma.lca(mb), "lca({a}, {b})");
    assert_eq!(a.tree_distance(b), ma.tree_distance(mb), "d({a}, {b})");
    assert_eq!(a.cmp(&b), ma.cmp(mb), "order of {a}, {b}");
    assert_eq!(a == b, ma == mb);
}

/// splitmix64: a seeded stream of 64-bit draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An address at a drawn level up to `MAX_LEN`, at a drawn position.
    fn address(&mut self) -> Address {
        let len = (self.next() % (u64::from(MAX_LEN) + 1)) as u8;
        let bits = if len == 0 {
            0
        } else {
            self.next() >> (64 - len)
        };
        Address::new(len, bits)
    }
}

#[test]
fn every_address_up_to_level_10_matches_the_model() {
    let all: Vec<Address> = Address::all_up_to(10).collect();
    assert_eq!(all.len(), (1 << 11) - 1);
    for (id, &a) in all.iter().enumerate() {
        assert_eq!(a.heap_id(), id, "heap order");
        check_one(a);
    }
    for level in 0..=10 {
        let on_level: Vec<Model> = Address::level_iter(level).map(Model::of).collect();
        let expect: Vec<Model> = (0..1u64 << level)
            .map(|bits| Model { len: level, bits })
            .collect();
        assert_eq!(on_level, expect, "level {level}");
    }
    // Every pair up to level 7, and each address up to level 10 against
    // a stride of the others.
    for &a in &all[..255] {
        for &b in &all[..255] {
            check_pair(a, b);
        }
    }
    for &a in &all {
        for &b in all.iter().step_by(37) {
            check_pair(a, b);
        }
    }
}

#[test]
fn seeded_addresses_up_to_max_len_match_the_model() {
    let mut draws = Draws(0x5eed);
    let mut prev = Address::ROOT;
    for _ in 0..20_000 {
        let a = draws.address();
        check_one(a);
        check_pair(a, prev);
        // A relative of `a` below one of its drawn ancestors, so the pair's
        // lca is that ancestor or deeper.
        let m = Model::of(a);
        let up = (draws.next() % (u64::from(m.len) + 1)) as u8;
        let anc = a.ancestor_at(m.len - up).unwrap();
        let down = (draws.next() % (u64::from(MAX_LEN - anc.level()) + 1)) as u8;
        let mut kin = anc;
        for _ in 0..down {
            kin = kin.child((draws.next() & 1) as u8);
        }
        check_pair(a, kin);
        prev = a;
    }
    // The extremes of the deepest level.
    let first = Address::new(MAX_LEN, 0);
    let last = Address::new(MAX_LEN, (1u64 << MAX_LEN) - 1);
    for a in [first, last] {
        check_one(a);
    }
    check_pair(first, last);
    assert_eq!(first.tree_distance(last), 2 * u32::from(MAX_LEN));
    let ones = "1".repeat(usize::from(MAX_LEN));
    assert_eq!(Address::parse(&ones), Some(last));
    assert_eq!(Address::parse(&format!("{ones}1")), None, "past MAX_LEN");
}
