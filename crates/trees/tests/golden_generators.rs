//! Golden-output pinning of the seeded tree generators.
//!
//! Every `(family, n, seed)` triple names one tree everywhere: the CLI,
//! the benches and the serving layer's cache keys all go through
//! [`TreeFamily::generate_seeded`]. Each case hashes the tree's parent
//! array and every child list (in slot order), for every family and for
//! Rémy's full trees, at X(6), X(9) and X(12) guest sizes with two seeds
//! each, so a generator rewritten for speed must return the same tree.
//!
//! Regenerate (only when a change is *meant* to alter outputs):
//! `XTREE_GOLDEN_PRINT=1 cargo test -p xtree-trees --test golden_generators -- --nocapture`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xtree_trees::generate::remy_full;
use xtree_trees::{theorem1_size, BinaryTree, TreeFamily};

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The tree's size, root, parent array and child lists.
fn fingerprint(t: &BinaryTree) -> u64 {
    let mut h = Fnv::new();
    h.word(t.len() as u64);
    h.word(u64::from(t.root().0));
    for v in t.nodes() {
        h.word(t.parent(v).map_or(u64::MAX, |p| u64::from(p.0)));
        let kids = t.children(v);
        h.word(kids.len() as u64);
        for c in kids {
            h.word(u64::from(c.0));
        }
    }
    h.0
}

/// X(6), X(9) and X(12) guest sizes: 2 032, 16 368 and 131 056 nodes.
const SIZES: [usize; 3] = [theorem1_size(6), theorem1_size(9), theorem1_size(12)];
const SEEDS: [u64; 2] = [0x6E7E_0001, 0x6E7E_0002];
/// The row label of Rémy's full trees, after the twelve families.
const REMY: usize = 12;

/// `(family index in TreeFamily::ALL or REMY, nodes, seed, fingerprint)`,
/// captured from the generators at e342aab.
const CASES: &[(usize, usize, u64, u64)] = &[
    (0, 2032, 0x6E7E0001, 0xF348D5287AB787E3),
    (0, 2032, 0x6E7E0002, 0xF348D5287AB787E3),
    (0, 16368, 0x6E7E0001, 0x0A9A00FB40965993),
    (0, 16368, 0x6E7E0002, 0x0A9A00FB40965993),
    (0, 131056, 0x6E7E0001, 0x77E26803DDF4D313),
    (0, 131056, 0x6E7E0002, 0x77E26803DDF4D313),
    (1, 2032, 0x6E7E0001, 0x6DF894D4D48CEC5D),
    (1, 2032, 0x6E7E0002, 0x6DF894D4D48CEC5D),
    (1, 16368, 0x6E7E0001, 0x3E7E5C9CDEB1E38D),
    (1, 16368, 0x6E7E0002, 0x3E7E5C9CDEB1E38D),
    (1, 131056, 0x6E7E0001, 0x754486FB1C2D7C44),
    (1, 131056, 0x6E7E0002, 0x754486FB1C2D7C44),
    (2, 2032, 0x6E7E0001, 0xF9DAC3781C0BD731),
    (2, 2032, 0x6E7E0002, 0xF9DAC3781C0BD731),
    (2, 16368, 0x6E7E0001, 0x657968531AED2054),
    (2, 16368, 0x6E7E0002, 0x657968531AED2054),
    (2, 131056, 0x6E7E0001, 0xD4A5E2EB86EEDC3C),
    (2, 131056, 0x6E7E0002, 0xD4A5E2EB86EEDC3C),
    (3, 2032, 0x6E7E0001, 0x09B6F4D07BBA247F),
    (3, 2032, 0x6E7E0002, 0x09B6F4D07BBA247F),
    (3, 16368, 0x6E7E0001, 0x59048DFB3F8E0C3B),
    (3, 16368, 0x6E7E0002, 0x59048DFB3F8E0C3B),
    (3, 131056, 0x6E7E0001, 0x0849F89AE50BE7D2),
    (3, 131056, 0x6E7E0002, 0x0849F89AE50BE7D2),
    (4, 2032, 0x6E7E0001, 0xF2FEA4839035278A),
    (4, 2032, 0x6E7E0002, 0xA4B2B0F73A0F9294),
    (4, 16368, 0x6E7E0001, 0x205605A8AB1AB8A7),
    (4, 16368, 0x6E7E0002, 0xDAC6D2699C478589),
    (4, 131056, 0x6E7E0001, 0xA112B195BF6D8CFB),
    (4, 131056, 0x6E7E0002, 0x641F3CCD7B9D47FD),
    (5, 2032, 0x6E7E0001, 0xC92AE43ACD3998C5),
    (5, 2032, 0x6E7E0002, 0xA2C480A5B6F38F18),
    (5, 16368, 0x6E7E0001, 0x5DEB7DA8FD5D8621),
    (5, 16368, 0x6E7E0002, 0x9B265ED0056235EC),
    (5, 131056, 0x6E7E0001, 0x09B3AC5CB0548180),
    (5, 131056, 0x6E7E0002, 0xD541B3344CC9C30E),
    (6, 2032, 0x6E7E0001, 0xA16CA16F2D898A8D),
    (6, 2032, 0x6E7E0002, 0x4F8E422F4E3679E6),
    (6, 16368, 0x6E7E0001, 0xB77151686901C583),
    (6, 16368, 0x6E7E0002, 0x54D58043DB827000),
    (6, 131056, 0x6E7E0001, 0x8B65E4189E77C84A),
    (6, 131056, 0x6E7E0002, 0xFCC980CA56C20410),
    (7, 2032, 0x6E7E0001, 0x0D87F4D71195960A),
    (7, 2032, 0x6E7E0002, 0xEEA292F2D7B71376),
    (7, 16368, 0x6E7E0001, 0x0566C0DB068F1003),
    (7, 16368, 0x6E7E0002, 0x4DAE79DFBE30E568),
    (7, 131056, 0x6E7E0001, 0x400B51D72C6681F7),
    (7, 131056, 0x6E7E0002, 0xB40E7D766EFE3F75),
    (8, 2032, 0x6E7E0001, 0xB6E6C6D64B88182C),
    (8, 2032, 0x6E7E0002, 0xB6E6C6D64B88182C),
    (8, 16368, 0x6E7E0001, 0x7C7133A03EF09BDC),
    (8, 16368, 0x6E7E0002, 0x7C7133A03EF09BDC),
    (8, 131056, 0x6E7E0001, 0x0FAE88DC6877714A),
    (8, 131056, 0x6E7E0002, 0x0FAE88DC6877714A),
    (9, 2032, 0x6E7E0001, 0xB33E16F8DEEAE83D),
    (9, 2032, 0x6E7E0002, 0x1663EA0D880BC8B9),
    (9, 16368, 0x6E7E0001, 0x931B2422E96D933B),
    (9, 16368, 0x6E7E0002, 0xD812F9809A729F94),
    (9, 131056, 0x6E7E0001, 0x1160073D7C9217ED),
    (9, 131056, 0x6E7E0002, 0x1C74499392A786C9),
    (10, 2032, 0x6E7E0001, 0x401F6D4FEE0DFD82),
    (10, 2032, 0x6E7E0002, 0x72C4DBED2398B822),
    (10, 16368, 0x6E7E0001, 0x65D4E605639F5B99),
    (10, 16368, 0x6E7E0002, 0x46DA87EEC4653A9F),
    (10, 131056, 0x6E7E0001, 0xE2E34F4AD653AEBF),
    (10, 131056, 0x6E7E0002, 0x690068AA702C477F),
    (11, 2032, 0x6E7E0001, 0x4EEB1D94A35DF9FC),
    (11, 2032, 0x6E7E0002, 0x5496950EE8A3366C),
    (11, 16368, 0x6E7E0001, 0x7D8F0A122EA21F82),
    (11, 16368, 0x6E7E0002, 0xE6DC30B28F6384DE),
    (11, 131056, 0x6E7E0001, 0x62F334F13D08CA6A),
    (11, 131056, 0x6E7E0002, 0xE36AE174960074A0),
    (12, 2032, 0x6E7E0001, 0xE9A925CA5E189427),
    (12, 2032, 0x6E7E0002, 0xA0BFF51AF5DE34F3),
    (12, 16368, 0x6E7E0001, 0x52F921431DB4C47F),
    (12, 16368, 0x6E7E0002, 0x6EFD764225791AAB),
    (12, 131056, 0x6E7E0001, 0x6E296A9F944AD04F),
    (12, 131056, 0x6E7E0002, 0x9DAEA11D61A2C953),
];

/// Every case in table order: the tree and its row key.
fn cases() -> impl Iterator<Item = (usize, usize, u64, BinaryTree)> {
    (0..=REMY).flat_map(|f| {
        SIZES.into_iter().flat_map(move |n| {
            SEEDS.into_iter().map(move |seed| {
                let t = match TreeFamily::ALL.get(f) {
                    Some(family) => family.generate_seeded(n, seed),
                    // A full tree of n leaves, 2n − 1 nodes.
                    None => remy_full(n, &mut ChaCha8Rng::seed_from_u64(seed)),
                };
                (f, n, seed, t)
            })
        })
    })
}

#[test]
fn generator_outputs_are_stable() {
    let print = std::env::var("XTREE_GOLDEN_PRINT").is_ok();
    let mut k = 0;
    for (f, n, seed, t) in cases() {
        let h = fingerprint(&t);
        if print {
            println!("    ({f}, {n}, {seed:#X}, {h:#018X}),");
            continue;
        }
        let &(ef, en, es, eh) = CASES.get(k).expect("one case per row");
        assert_eq!((ef, en, es), (f, n, seed), "case order");
        let name = TreeFamily::ALL.get(f).map_or("remy-full", |fam| fam.name());
        assert_eq!(h, eh, "generator drift: {name} n={n} seed={seed:#X}");
        k += 1;
    }
    assert!(print || k == CASES.len(), "a case was not checked");
}
