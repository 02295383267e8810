//! Golden-output pinning of the Theorem-1 builder.
//!
//! The perf rebuild of the builder interior (SoA attachments, interval
//! free-list, scratch reuse, heap-id maps) promises **byte-identical**
//! results. These fingerprints were generated from the pre-refactor
//! builder; any behavioural drift — a different embedding, trace row,
//! mass trace, or mechanism counter — changes the FNV hash and fails.
//!
//! Regenerate (only when a change is *meant* to alter outputs):
//! `XTREE_GOLDEN_PRINT=1 cargo test -p xtree-core --test golden_theorem1 -- --nocapture`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xtree_core::theorem1::{self, Theorem1Embedding};
use xtree_trees::generate::{theorem1_size, TreeFamily};
use xtree_trees::NodeId;

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

/// One hash covering everything the golden contract pins: the embedding
/// map, the convergence trace, the mass trace, and every BuildLog counter.
/// Each image is hashed as its `(level, index)` address, whatever the
/// map stores, so the constants outlive changes of representation.
fn fingerprint(res: &Theorem1Embedding) -> u64 {
    let mut h = Fnv::new();
    h.word(u64::from(res.emb.height));
    h.word(res.emb.guest_len() as u64);
    for v in 0..res.emb.guest_len() {
        let a = res.emb.image(NodeId(v as u32));
        h.word(u64::from(a.level()));
        h.word(a.index());
    }
    h.word(res.trace.len() as u64);
    for row in &res.trace {
        h.word(row.len() as u64);
        for &d in row {
            h.word(d);
        }
    }
    h.word(res.mass_trace.len() as u64);
    for &(nl, nh) in &res.mass_trace {
        h.word(nl);
        h.word(nh);
    }
    let log = &res.log;
    for c in [
        log.adjust_calls,
        log.adjust_whole_moves,
        log.adjust_splits,
        log.split_balances,
        log.forced_placements,
        log.fills,
        log.borrows,
        log.spills,
        log.multi_designated_components,
    ] {
        h.word(c as u64);
    }
    h.word(u64::from(log.max_borrow_hops));
    h.0
}

/// `(family index in TreeFamily::ALL, r, seed, expected fingerprint)`.
///
/// The first eight families at X(6) (the serving size), then spot checks
/// of the random models up to X(10). Hashes captured from the
/// pre-refactor builder at commit 4f8b7c4.
const CASES: &[(usize, u8, u64, u64)] = &[
    (0, 6, 0xA11CE, 0xF84EDDD520C2F7F8),
    (1, 6, 0xA11CE, 0x4A88ED764BF3CF80),
    (2, 6, 0xA11CE, 0x32C3FE59384E19A6),
    (3, 6, 0xA11CE, 0x92F40048EB437A2C),
    (4, 6, 0xA11CE, 0xAB0877CD3417B720),
    (5, 6, 0xA11CE, 0xB65930EBE38263F1),
    (6, 6, 0xA11CE, 0x3E8E268E1943CA52),
    (7, 6, 0xA11CE, 0x55ACB36C4295F281),
    (4, 7, 0xBEEF, 0xE7E212B3B15F04E3),
    (6, 7, 0xBEEF, 0x734537E63FE5D773),
    (4, 8, 0xCAFE, 0x08F07B869F9CCFD0),
    (5, 8, 0xCAFE, 0x90328FA6EB681886),
    (4, 9, 0xD00D, 0x0FD2CA7343195EA8),
    (4, 10, 0xE66, 0x24F0775F49F6CE6D),
    // The other four families at X(6), then the guests
    // whose fragments stay long (paths, caterpillars, lopsided random
    // shapes) at X(9). Captured from the flooding builder at c5bb0ad,
    // before fragments were sized from the guest's static preorder.
    (8, 6, 0xA11CE, 0xC97CA0101E53A300),
    (9, 6, 0xA11CE, 0xD911C6890577C803),
    (10, 6, 0xA11CE, 0xEB44C4708E188E7C),
    (11, 6, 0xA11CE, 0xB0EB845429BAAF9E),
    (0, 9, 0xD00D, 0xA0B8A61F26ACA3BA),
    (2, 9, 0xD00D, 0x872332291B7C0722),
    (7, 9, 0xD00D, 0xD2D493308A901CCC),
    (9, 9, 0xD00D, 0xAA6DA3130C249F2F),
    (11, 9, 0xD00D, 0x82F1CADA9C800690),
    // Broom at X(9), then the long-fragment guests at X(10). Captured
    // from the orientation-based separator at bd85bd2, before Lemmas 1
    // and 2 read pieces off the guest's static preorder.
    (3, 9, 0xD00D, 0xEF9BEFE4C5D4812F),
    (2, 10, 0xE66, 0xF7DD9D09798E78DD),
    (9, 10, 0xE66, 0x258F0B9BEEFD3174),
    (11, 10, 0xE66, 0x61B6E812FEE9C029),
];

#[test]
fn golden_outputs_are_stable() {
    let print = std::env::var("XTREE_GOLDEN_PRINT").is_ok();
    for &(f, r, seed, expected) in CASES {
        let family = TreeFamily::ALL[f];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tree = family.generate(theorem1_size(r), &mut rng);
        let res = theorem1::embed(&tree);
        let got = fingerprint(&res);
        if print {
            println!("    ({f}, {r}, {seed:#X}, {got:#018X}),");
        } else {
            assert_eq!(
                got,
                expected,
                "golden drift: family {} r {r} seed {seed:#X}",
                family.name()
            );
        }
    }
}
