//! Golden-output pinning of the separator lemmas.
//!
//! Lemmas 1 and 2 run on seeded pieces of every tree family at three
//! sizes, under three placement patterns: nothing placed, sparse placed
//! nodes, and dense placed nodes (small pieces, many with three or more
//! designated nodes). Each (family, size) hashes every returned `s1`,
//! `s2` and `cut` as returned, and `part2` as a sorted set, so a change
//! of the order in which `part2` lists its nodes does not count as drift.
//!
//! Regenerate (only when a change is *meant* to alter outputs):
//! `XTREE_GOLDEN_PRINT=1 cargo test -p xtree-trees --test golden_separators -- --nocapture`

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xtree_trees::{lemma1, lemma2, BinaryTree, NodeId, Separation, TreeFamily};

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

    fn nodes(&mut self, vs: impl ExactSizeIterator<Item = NodeId>) {
        self.word(vs.len() as u64);
        for v in vs {
            self.word(u64::from(v.0));
        }
    }

    fn separation(&mut self, sep: &Separation) {
        self.nodes(sep.s1.iter().copied());
        self.nodes(sep.s2.iter().copied());
        self.nodes(
            sep.cut
                .iter()
                .flat_map(|&(a, b)| [a, b])
                .collect::<Vec<_>>()
                .into_iter(),
        );
        let mut part2 = sep.part2.clone();
        part2.sort_unstable();
        self.nodes(part2.into_iter());
    }
}

/// Placement patterns: the probability (out of 64) that a node is placed.
const PATTERNS: [u32; 3] = [0, 1, 8];
const SIZES: [usize; 3] = [50, 400, 3000];
const DRAWS: usize = 12;

/// The piece of `r1` (un-placed nodes reachable from it) and the nodes of
/// it with a placed neighbour.
fn piece(t: &BinaryTree, placed: &[bool], r1: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut seen = vec![false; t.len()];
    seen[r1.index()] = true;
    let mut nodes = vec![r1];
    let mut head = 0;
    while head < nodes.len() {
        let v = nodes[head];
        head += 1;
        for w in t.neighbors(v) {
            if !placed[w.index()] && !seen[w.index()] {
                seen[w.index()] = true;
                nodes.push(w);
            }
        }
    }
    let designated = nodes
        .iter()
        .copied()
        .filter(|&v| t.neighbors(v).iter().any(|w| placed[w.index()]))
        .collect();
    (nodes, designated)
}

/// Hashes of every Lemma-1 and Lemma-2 output on one seeded guest.
fn hashes(family: TreeFamily, n: usize, seed: u64) -> (u64, u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t = family.generate(n, &mut rng);
    let (mut h1, mut h2) = (Fnv::new(), Fnv::new());
    for per64 in PATTERNS {
        let placed: Vec<bool> = (0..t.len())
            .map(|_| rng.random_range(0..64) < per64)
            .collect();
        // Designated-node candidates: un-placed nodes with at most two
        // un-placed neighbours, with a placed one whenever anything is
        // placed (the shape of every piece the builder splits).
        let candidates: Vec<NodeId> = t
            .nodes()
            .filter(|&v| !placed[v.index()])
            .filter(|&v| {
                let free = t.neighbors(v).iter().filter(|w| !placed[w.index()]).count();
                free <= 2 && (per64 == 0 || free < t.degree(v))
            })
            .collect();
        let mut drawn = 0;
        for _ in 0..DRAWS * 8 {
            if drawn == DRAWS || candidates.is_empty() {
                break;
            }
            let r1 = candidates[rng.random_range(0..candidates.len())];
            let (nodes, designated) = piece(&t, &placed, r1);
            if nodes.len() < 2 {
                continue;
            }
            drawn += 1;
            let r2 = if designated.is_empty() {
                let ends: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&v| t.degree(v) <= 2)
                    .collect();
                ends[rng.random_range(0..ends.len())]
            } else {
                designated[rng.random_range(0..designated.len())]
            };
            let m = nodes.len() as u32;
            let delta = rng.random_range(1..=m);
            h2.separation(&lemma2(&t, &placed, r1, r2, delta));
            let delta = rng.random_range(1..=(3 * m - 1) / 4);
            h1.separation(&lemma1(&t, &placed, r1, r2, delta));
        }
        h1.word(drawn as u64);
        h2.word(drawn as u64);
    }
    (h1.0, h2.0)
}

/// `(family index in TreeFamily::ALL, nodes, lemma-1 hash, lemma-2 hash)`,
/// captured from the orientation-based separator at bd85bd2.
const CASES: &[(usize, usize, u64, u64)] = &[
    (0, 50, 0x851AE55D1233402E, 0xD8BEA21E1FC81F61),
    (0, 400, 0xF6AC7D5F6F0AFA04, 0x5EF6217DE4D00C78),
    (0, 3000, 0xA6B46CB838E3F484, 0xF0E01D531EBA6B14),
    (1, 50, 0x3CBA6BAE4414E422, 0xAA3381E7E2DE1F46),
    (1, 400, 0x9811BDFD78930F6F, 0x6490AB7114A7E19C),
    (1, 3000, 0x211D104D6F2CA59C, 0xDDC3E00340EED977),
    (2, 50, 0x7281358F8AA19EA8, 0x81114EE6739516ED),
    (2, 400, 0x1C72AEB9F6E489AE, 0xF54BD89482166082),
    (2, 3000, 0xEA7925F99319CBFF, 0xD1169F088D01E5C1),
    (3, 50, 0x15C5BD2B774E6355, 0x2FB5B27886B7F0E4),
    (3, 400, 0x3EA12561B43A9369, 0xF598AAF8DE6B73CC),
    (3, 3000, 0x13E01C1DE85D1B76, 0x1446C674DDFA4FB8),
    (4, 50, 0x14A7EF15A4C47CF0, 0x03AFEFD7F3171E08),
    (4, 400, 0x5D67C08CB2F55387, 0x4675C75FD942E2EE),
    (4, 3000, 0x9DE2EC88FCD6C8EE, 0xD3998B389986400F),
    (5, 50, 0xBB1B15BBBA80F8FA, 0xB47A5B047DBD64BF),
    (5, 400, 0x2B5A3FCD9EA0F37E, 0x6B234CFB51B74B68),
    (5, 3000, 0x07DAB3F6CA8C246B, 0xD827851E0E05F924),
    (6, 50, 0x0FC7A08846E4D617, 0x33E0752C3D21018D),
    (6, 400, 0xD9C8E48DE7BCB6B4, 0xDA40B1B9EF8AB2B9),
    (6, 3000, 0x59BDDCAE24BEF70B, 0xB984BECD26B288DC),
    (7, 50, 0x292FD49E320C4496, 0x181EC8D6EB2231BB),
    (7, 400, 0x6939E917497670B9, 0x891C26F79E57AB4E),
    (7, 3000, 0xE9A22C6B01E41133, 0x1E48C5DFEDDF410E),
    (8, 50, 0x1E1BC7FD0F3B8D20, 0xB98D28176AB6D9CD),
    (8, 400, 0x6DCC80988582B4AA, 0xE730E49F44307B3B),
    (8, 3000, 0xAAB33FCA00CB311F, 0xFCBE633A36F6C877),
    (9, 50, 0x92C389E2AE446911, 0x12AFFAFE0C9BF161),
    (9, 400, 0x26BF4F6BC9AEA7AC, 0x9015BC87D97296F1),
    (9, 3000, 0xDB97480B42A05B61, 0x6E638361119CE45C),
    (10, 50, 0x758077B952061E27, 0xB7588199575CB3EC),
    (10, 400, 0x1C777149BE1FF8E6, 0x3D612C2D0872D2FA),
    (10, 3000, 0x3F94DAEA12F8DD7D, 0xD00ED3E2884EE4E5),
    (11, 50, 0xA00CE1DC9CA9912A, 0x100FACE983B30AA3),
    (11, 400, 0x483ABD241127399F, 0x526874995DD78A05),
    (11, 3000, 0xBAAF4E63E37D90CB, 0x704787AA5E8C8C77),
];

#[test]
fn separator_outputs_are_stable() {
    let print = std::env::var("XTREE_GOLDEN_PRINT").is_ok();
    let mut k = 0;
    for (f, family) in TreeFamily::ALL.into_iter().enumerate() {
        for n in SIZES {
            let seed = 0x5E9A_0000 + (f as u64) * 16 + n as u64;
            let (h1, h2) = hashes(family, n, seed);
            if print {
                println!("    ({f}, {n}, {h1:#018X}, {h2:#018X}),");
                continue;
            }
            let &(ef, en, e1, e2) = CASES.get(k).expect("one case per family and size");
            assert_eq!((ef, en), (f, n), "case order");
            assert_eq!(h1, e1, "lemma 1 drift: {} n={n}", family.name());
            assert_eq!(h2, e2, "lemma 2 drift: {} n={n}", family.name());
            k += 1;
        }
    }
}
