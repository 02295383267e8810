//! Request streams: a pure function of (workload, seed, connection).
//!
//! Each connection walks its own stream, so the requests a run sends do
//! not depend on how the two connections interleave. The seed moves tree
//! seeds and draw order; the shares of each request class are fixed by
//! the workload, so that `p50_us` and `p90_us` land inside one class on
//! every seed (the tests below check both).

use xtree_core::theorem1::optimal_height;
use xtree_host::{HOST_HYPERCUBE, HOST_LABELS, HOST_UNIVERSAL, HOST_XTREE};
use xtree_scenario::{KeySampler, TrafficModel};
use xtree_server::{EmbeddingKey, Request, WORKLOAD_ALL};
use xtree_trees::{theorem1_size, TreeFamily};

/// Client connections, one closed loop each (the box has 2 vCPUs).
pub const CONNS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// The server's cache capacity, passed explicitly so the pools below
/// stay smaller than it.
pub const CACHE_CAP: usize = 256;

/// `embed_hot`: distinct (family, seed) keys, four per family.
const HOT_POOL: usize = 48;
/// `host_mix`: distinct (family, seed, size) keys; times three hosts this
/// is still well under [`CACHE_CAP`], so no first-touched key is evicted.
const MIX_POOL: usize = 36;
/// `cold_build`: one request in this many is above the parallel gate.
const COLD_BLOCK: u64 = 5;
/// `host_mix`: one request in this many goes to the universal host.
const MIX_BLOCK: u64 = 5;
/// X-tree height of `cold_build`'s above-gate requests: 131 056 guests,
/// the first exact size whose ADJUST sweeps carry more than 2^16 mass.
const ABOVE_GATE_HEIGHT: u8 = 12;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warm X-tree Embed hits on a pre-built pool.
    EmbedHot,
    /// Fresh-key Embed builds, a fifth of them above the parallel gate.
    ColdBuild,
    /// Embed and Simulate on shared keys across the three hosts.
    HostMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::EmbedHot, Workload::ColdBuild, Workload::HostMix];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbedHot => "embed_hot",
            Workload::ColdBuild => "cold_build",
            Workload::HostMix => "host_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Requests the traced run sends and replays: a fixed prefix of the
    /// streams, so the per-layer counts repeat exactly for a seed.
    pub fn trace_len(self) -> usize {
        match self {
            Workload::EmbedHot => 2000,
            Workload::ColdBuild => 100,
            Workload::HostMix => 500,
        }
    }
}

/// One request as the benchmark sends it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// The wire request.
    pub req: Request,
    /// The host tag stamped into the frame.
    pub host: u8,
}

impl Call {
    fn embed(family: u8, nodes: u64, seed: u64, theorem: u8, host: u8) -> Call {
        Call {
            req: Request::Embed {
                family,
                nodes,
                seed,
                theorem,
            },
            host,
        }
    }

    /// The server's cache key for this request.
    pub fn key(&self) -> EmbeddingKey {
        let (family, nodes, seed, theorem) = match self.req {
            Request::Embed {
                family,
                nodes,
                seed,
                theorem,
            }
            | Request::Simulate {
                family,
                nodes,
                seed,
                theorem,
                ..
            } => (family, nodes, seed, theorem),
            _ => unreachable!("streams hold only Embed and Simulate"),
        };
        EmbeddingKey {
            family,
            nodes,
            seed,
            theorem,
            host: self.host,
        }
    }

    /// The request class latencies are grouped by: host, X-tree height,
    /// and operation (`t1`/`t2` for Embed, the engine workload for
    /// Simulate).
    pub fn class(&self) -> String {
        let key = self.key();
        let op = match self.req {
            Request::Simulate { workload, .. } if workload == WORKLOAD_ALL => "sim-all".into(),
            Request::Simulate { workload, .. } => format!("sim{workload}"),
            _ => format!("t{}", key.theorem),
        };
        format!(
            "{}/X{}/{op}",
            HOST_LABELS[usize::from(self.host)],
            optimal_height(key.nodes as usize)
        )
    }
}

/// SplitMix64, the stateless mixer every draw below goes through.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn nodes(height: u8) -> u64 {
    theorem1_size(height) as u64
}

/// `embed_hot`'s family for Zipf rank `k`: `HOT_FAMILIES[k mod 12]`, so
/// every seed draws the same family mix. The two families whose trees
/// are slowest to generate, `uniform` (9) and `bst-insertion` (10), take
/// ranks 1 and 5: a fifth of the draws, so `p90_us` lands in the middle
/// of their block. `leaning` (7), mid-range among the rest, takes rank 0
/// and holds `p50_us`.
const HOT_FAMILIES: [u8; 12] = [7, 9, 0, 2, 3, 10, 11, 1, 8, 4, 5, 6];

/// Pool key `k` of `embed_hot`; the seed moves only its tree seed.
fn hot_key(seed: u64, k: usize) -> Call {
    let family = HOT_FAMILIES[k % HOT_FAMILIES.len()];
    Call::embed(
        family,
        nodes(6),
        mix(seed ^ 0x407 ^ (k as u64) << 32),
        1,
        HOST_XTREE,
    )
}

/// Pool key `k` of `host_mix` as an X-tree Theorem-1 Embed. Keys with
/// `k mod 4 = 2` are X(5), the rest X(6): about a fifth of the Zipf mass
/// is X(5), so `p90_us` stays inside the X(6) universal requests.
fn mix_key(seed: u64, k: usize) -> Call {
    let family = (k % TreeFamily::ALL.len()) as u8;
    let height = if k % 4 == 2 { 5 } else { 6 };
    Call::embed(
        family,
        nodes(height),
        mix(seed ^ 0x313 ^ (k as u64) << 32),
        1,
        HOST_XTREE,
    )
}

/// The requests set-up sends before timing starts: `embed_hot` builds its
/// whole pool, the others start cold.
pub fn prewarm(w: Workload, seed: u64) -> Vec<Call> {
    match w {
        Workload::EmbedHot => (0..HOT_POOL).map(|k| hot_key(seed, k)).collect(),
        Workload::ColdBuild | Workload::HostMix => Vec::new(),
    }
}

/// One connection's request stream.
pub struct Stream {
    workload: Workload,
    seed: u64,
    conn: u64,
    keys: Option<KeySampler>,
}

impl Stream {
    /// The stream connection `conn` of a `w` run with `seed` sends.
    pub fn new(w: Workload, seed: u64, conn: usize) -> Stream {
        let conn = conn as u64;
        let zipf = TrafficModel::Zipf {
            s: xtree_scenario::traffic::DEFAULT_ZIPF_S,
        };
        let draw_seed = mix(seed ^ 0xD12A_0000 ^ conn);
        let keys = match w {
            Workload::EmbedHot => Some(zipf.key_sampler(HOT_POOL, draw_seed)),
            Workload::HostMix => Some(zipf.key_sampler(MIX_POOL, draw_seed)),
            Workload::ColdBuild => None,
        };
        Stream {
            workload: w,
            seed,
            conn,
            keys,
        }
    }

    /// A seeded draw for request `j`, independent per `salt`.
    fn draw(&self, j: u64, salt: u64) -> u64 {
        mix(mix(self.seed ^ salt) ^ (j << 8 | self.conn))
    }

    /// True when request `j` is the one request of its block of `block`
    /// picked out (the above-gate or universal request): exact shares
    /// per block, at a seeded position inside it.
    fn picked(&self, j: u64, block: u64, salt: u64) -> bool {
        j % block == self.draw(j / block, salt) % block
    }

    /// Request `j` of this stream.
    pub fn call(&self, j: u64) -> Call {
        match self.workload {
            Workload::EmbedHot => {
                let k = self.keys.as_ref().expect("embed_hot draws keys").rank(j);
                hot_key(self.seed, k)
            }
            Workload::ColdBuild => self.cold(j),
            Workload::HostMix => self.host_mix(j),
        }
    }

    /// `cold_build`: a fresh tree seed on every request (`j` and the
    /// connection are xor-ed into one seed, so seeds never repeat within
    /// a run). Serving sizes are weighted so that X(7) holds the middle
    /// of the distribution: shares X(5) .10, X(6) .20, X(7) .40,
    /// X(8) .05, X(9) .05, X(12) .20. A quarter of the serving requests
    /// are Theorem 2. The above-gate requests are Theorem 1 and take the
    /// families in turn, so `p90_us`, the median of that class, sees the
    /// same family mix on every seed.
    fn cold(&self, j: u64) -> Call {
        let tree_seed = mix(self.seed ^ 0xC01D) ^ (j * CONNS as u64 + self.conn);
        let families = TreeFamily::ALL.len() as u64;
        if self.picked(j, COLD_BLOCK, 0xB16) {
            let family = ((j / COLD_BLOCK + self.draw(0, 0xFA3)) % families) as u8;
            return Call::embed(family, nodes(ABOVE_GATE_HEIGHT), tree_seed, 1, HOST_XTREE);
        }
        let height = match self.draw(j, 0x517E) % 16 {
            0..=1 => 5,
            2..=5 => 6,
            6..=13 => 7,
            14 => 8,
            _ => 9,
        };
        let family = (self.draw(j, 0xFA3) % families) as u8;
        let theorem = if self.draw(j, 0x7E0).is_multiple_of(4) {
            2
        } else {
            1
        };
        Call::embed(family, nodes(height), tree_seed, theorem, HOST_XTREE)
    }

    /// `host_mix`: a Zipf-drawn shared key on one of three hosts (one in
    /// five universal, the rest split evenly), as Embed (.4), a single
    /// engine workload (.1 each), or all four workloads (.2).
    fn host_mix(&self, j: u64) -> Call {
        let k = self.keys.as_ref().expect("host_mix draws keys").rank(j);
        let Request::Embed {
            family,
            nodes,
            seed,
            theorem,
        } = mix_key(self.seed, k).req
        else {
            unreachable!("mix_key builds an Embed")
        };
        let host = if self.picked(j, MIX_BLOCK, 0x0415) {
            HOST_UNIVERSAL
        } else if self.draw(j, 0x4057).is_multiple_of(2) {
            HOST_XTREE
        } else {
            HOST_HYPERCUBE
        };
        let req = match self.draw(j, 0x0B5) % 10 {
            0..=3 => Request::Embed {
                family,
                nodes,
                seed,
                theorem,
            },
            op @ 4..=7 => Request::Simulate {
                family,
                nodes,
                seed,
                theorem,
                workload: (op - 4) as u8,
            },
            _ => Request::Simulate {
                family,
                nodes,
                seed,
                theorem,
                workload: WORKLOAD_ALL,
            },
        };
        Call { req, host }
    }
}

/// The first `len` requests of a run in replay order: the connections'
/// streams interleaved one request at a time.
pub fn prefix(w: Workload, seed: u64, len: usize) -> Vec<Call> {
    let streams: Vec<Stream> = (0..CONNS).map(|c| Stream::new(w, seed, c)).collect();
    (0..len)
        .map(|i| streams[i % CONNS].call((i / CONNS) as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};

    const N: usize = 4000;

    /// Membership in a request class.
    type Pred = fn(&Call) -> bool;

    /// The share of requests in the slow class a workload's `p90_us` is
    /// meant to land in, and a predicate for that class: `cold_build`'s
    /// above-gate builds and `host_mix`'s universal requests. `embed_hot`
    /// has no such class.
    pub fn slow_class(w: Workload) -> Option<(f64, Pred)> {
        match w {
            Workload::EmbedHot => None,
            Workload::ColdBuild => Some((1.0 / COLD_BLOCK as f64, |c| {
                c.key().nodes == nodes(ABOVE_GATE_HEIGHT)
            })),
            Workload::HostMix => Some((1.0 / MIX_BLOCK as f64, |c| c.host == HOST_UNIVERSAL)),
        }
    }

    #[test]
    fn streams_are_a_pure_function_of_workload_and_seed() {
        for w in Workload::ALL {
            assert_eq!(prefix(w, 7, N), prefix(w, 7, N), "{}", w.name());
            assert_ne!(prefix(w, 7, N), prefix(w, 8, N), "{}", w.name());
            assert_eq!(prewarm(w, 7), prewarm(w, 7));
        }
    }

    #[test]
    fn embed_hot_draws_only_prewarmed_keys_of_every_family() {
        for seed in 0..4 {
            let pool: HashSet<EmbeddingKey> = prewarm(Workload::EmbedHot, seed)
                .iter()
                .map(Call::key)
                .collect();
            assert_eq!(pool.len(), HOT_POOL);
            let families: HashSet<u8> = pool.iter().map(|k| k.family).collect();
            assert_eq!(families.len(), TreeFamily::ALL.len());
            for call in prefix(Workload::EmbedHot, seed, N) {
                assert!(pool.contains(&call.key()), "{call:?} is not pre-warmed");
            }
        }
    }

    /// The server's cache is an LRU per shard: a pool only stays resident
    /// if no shard holds more keys than its share of the capacity.
    fn fits_every_cache_shard(keys: &HashSet<EmbeddingKey>) -> bool {
        use xtree_server::cache::SHARDS;
        let mut per_shard = [0usize; SHARDS];
        for key in keys {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            per_shard[(h.finish() as usize) % SHARDS] += 1;
        }
        per_shard.iter().all(|&n| n <= CACHE_CAP.div_ceil(SHARDS))
    }

    #[test]
    fn embed_hot_gives_the_slow_families_a_fifth_of_the_draws() {
        let mut sorted = HOT_FAMILIES;
        sorted.sort_unstable();
        assert_eq!(sorted, std::array::from_fn(|i| i as u8), "a permutation");
        for seed in 0..10 {
            let calls = prefix(Workload::EmbedHot, seed, 20_000);
            let slow = share(&calls, |c| [9, 10].contains(&c.key().family));
            assert!((0.17..0.24).contains(&slow), "seed {seed}: {slow}");
        }
    }

    #[test]
    fn pools_fit_the_cache() {
        for seed in 0..10 {
            let hot: HashSet<EmbeddingKey> = prewarm(Workload::EmbedHot, seed)
                .iter()
                .map(Call::key)
                .collect();
            assert!(fits_every_cache_shard(&hot), "embed_hot seed {seed}");
            let mix: HashSet<EmbeddingKey> = (0..MIX_POOL)
                .flat_map(|k| {
                    [HOST_XTREE, HOST_HYPERCUBE, HOST_UNIVERSAL].map(|host| EmbeddingKey {
                        host,
                        ..mix_key(seed, k).key()
                    })
                })
                .collect();
            assert_eq!(mix.len(), 3 * MIX_POOL);
            assert!(fits_every_cache_shard(&mix), "host_mix seed {seed}");
        }
    }

    #[test]
    fn cold_build_never_repeats_a_key() {
        for seed in 0..4 {
            let calls = prefix(Workload::ColdBuild, seed, 20_000);
            let keys: HashSet<EmbeddingKey> = calls.iter().map(Call::key).collect();
            assert_eq!(keys.len(), calls.len(), "seed {seed}");
        }
    }

    /// Share of `calls` matching `pred`.
    fn share(calls: &[Call], pred: impl Fn(&Call) -> bool) -> f64 {
        calls.iter().filter(|c| pred(c)).count() as f64 / calls.len() as f64
    }

    /// Every prefix of whole blocks holds exactly the slow-class share,
    /// and that share keeps the p50 position (0.5) inside the fast class
    /// and the p90 position (0.9) in the middle of the slow one, at
    /// least 0.05 from either boundary.
    #[test]
    fn slow_class_shares_keep_p50_and_p90_off_class_boundaries() {
        for w in [Workload::ColdBuild, Workload::HostMix] {
            let (slow, is_slow) = slow_class(w).expect("has a slow class");
            for seed in 0..10 {
                for len in [100, 1000, 10_000] {
                    let got = share(&prefix(w, seed, len), is_slow);
                    assert!((got - slow).abs() < 1e-9, "{} seed {seed}: {got}", w.name());
                }
            }
            let fast_top = 1.0 - slow;
            assert!(
                0.5 < fast_top - 0.05,
                "{}: p50 near the class edge",
                w.name()
            );
            assert!(
                0.9 > fast_top + 0.05,
                "{}: p90 near the class edge",
                w.name()
            );
        }
    }

    /// Inside the slow and fast classes the sizes are weighted so the
    /// quantiles also avoid the size boundaries: `cold_build`'s p50 falls
    /// in its X(7) block and `host_mix`'s p90 in its X(6) universal
    /// block, each at least 0.05 from the block's edges.
    #[test]
    fn size_shares_keep_quantiles_inside_one_size() {
        let blocks = |calls: &[Call], order: &[(&str, Pred)]| {
            let mut lo = 0.0;
            order
                .iter()
                .map(|(name, pred)| {
                    let hi = lo + share(calls, pred);
                    let block = (name.to_string(), lo, hi);
                    lo = hi;
                    block
                })
                .collect::<Vec<_>>()
        };
        fn h(c: &Call) -> u8 {
            optimal_height(c.key().nodes as usize)
        }
        for seed in 0..10 {
            let cold = prefix(Workload::ColdBuild, seed, 20_000);
            let order: [(&str, Pred); 6] = [
                ("X5", |c| h(c) == 5),
                ("X6", |c| h(c) == 6),
                ("X7", |c| h(c) == 7),
                ("X8", |c| h(c) == 8),
                ("X9", |c| h(c) == 9),
                ("X12", |c| h(c) == 12),
            ];
            let b = blocks(&cold, &order);
            let (_, lo, hi) = &b[2];
            assert!(
                *lo < 0.45 && *hi > 0.55,
                "cold_build seed {seed}: X7 block {b:?}"
            );
            let (_, lo, hi) = &b[5];
            assert!(
                *lo < 0.85 && *hi > 0.95,
                "cold_build seed {seed}: X12 block {b:?}"
            );

            let mix = prefix(Workload::HostMix, seed, 20_000);
            let order: [(&str, Pred); 3] = [
                ("other", |c| c.host != HOST_UNIVERSAL),
                ("universal X5", |c| c.host == HOST_UNIVERSAL && h(c) == 5),
                ("universal X6", |c| c.host == HOST_UNIVERSAL && h(c) == 6),
            ];
            let b = blocks(&mix, &order);
            let (_, lo, hi) = &b[2];
            assert!(*lo < 0.85 && *hi > 0.95, "host_mix seed {seed}: {b:?}");
        }
    }

    #[test]
    fn host_mix_covers_every_host_and_operation() {
        let calls = prefix(Workload::HostMix, 3, N);
        let classes: HashSet<String> = calls.iter().map(Call::class).collect();
        for host in HOST_LABELS {
            for op in ["t1", "sim0", "sim1", "sim2", "sim3", "sim-all"] {
                assert!(
                    classes.contains(&format!("{host}/X6/{op}")),
                    "missing {host}/X6/{op}"
                );
            }
        }
    }
}
