//! `embedbench` — the Theorem-1 cold-path record, written to
//! `results/BENCH_embed.json`.
//!
//! For each size on the curve X(6)–X(12) it builds the same seeded
//! `random-bst` guest, and one `uniform` and one `path` guest at X(12),
//! two ways:
//!
//! * **legacy** — the frozen pre-refactor builder
//!   (`xtree_bench::legacy_theorem1`), timed as the reference;
//! * **serial** — the rebuilt hot path (`embed_with_scratch`) through one
//!   long-lived scratch, the serving-layer cache-miss configuration.
//!
//! Every rep asserts the two embeddings are identical (the refactor's
//! byte-identical contract), reps are interleaved and summarised by their
//! median, and a counting global allocator reports allocations per build —
//! the number the refactor drives toward zero on the steady-state path.
//!
//! **`--gate`** is the CI perf-regression mode (the telbench ±2% pattern,
//! generalised to be machine-independent): each guest in [`GATE_FLOORS`]
//! requires the serial rebuild to beat legacy by its floor — random-bst at
//! the serving size X(6) and at X(12), the largest host a cold build
//! reaches, a uniform guest at X(12), whose build Lemma 2 dominates, and a
//! path at X(12), where the separator walks cover the longest runs —
//! and the X(6) steady-state allocation count must stay within
//! [`GATE_ALLOC_SLACK`] of the checked-in
//! `results/BENCH_embed_baseline.json`. Wall-clock is only ever compared
//! *within* one run, never across machines.
//! `--write-baseline` refreshes that baseline file; `--smoke` shrinks the
//! sweep and skips the results file.
//!
//! Run with: `cargo run --release -p xtree-bench --bin embedbench`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use xtree_bench::legacy_theorem1::embed_legacy;
use xtree_core::theorem1::{embed_with_scratch, EmbedOptions, Theorem1Scratch};
use xtree_json::Value;
use xtree_trees::generate::{theorem1_size, TreeFamily};
use xtree_trees::BinaryTree;

/// Gate: minimum cold-build speedup of the rebuilt serial path over the
/// frozen legacy builder, per guest family and host height. At the
/// serving size X(6) the target is 2x and the gate trips below 1.5x, so
/// scheduler noise cannot flake CI. On random-bst at X(12) the fragment
/// derivation of DESIGN.md §13 measured 3.2x, against 1.6–2.0x for the
/// flooding builder it replaced; 2.5x fails the latter and leaves the
/// former a 25% margin. Random-bst spends about 5% of a build in Lemma 2,
/// so the uniform X(12) row holds the separator lemmas to their speed.
const GATE_FLOORS: [(TreeFamily, u8, f64); 4] = [
    (TreeFamily::RandomBst, SERVING_R, 1.5),
    (TreeFamily::RandomBst, 12, 2.5),
    // On 2 vCPUs this ratio read 1.54–1.71x while both builders oriented
    // every separator piece, and 5.6–6.7x once the live lemmas read pieces
    // off the static preorder: 3x fails the former and leaves the latter
    // a margin of over 80%.
    (TreeFamily::UniformRandom, 12, 3.0),
    // On a path guest the walks were the cost: 2.71–2.95x while `find1`
    // and `find2` stepped one node at a time, 5.34–6.11x once they
    // search heavy-path runs (2 vCPUs). 4x fails the former and leaves
    // the latter a margin of over 30%.
    (TreeFamily::Path, 12, 4.0),
];
/// Gate: allowed growth of steady-state allocations per build over the
/// checked-in baseline (counts, not bytes — fully machine-independent).
const GATE_ALLOC_SLACK: f64 = 1.10;
/// The serving size: X(6), 2032 nodes — what a cache miss builds.
const SERVING_R: u8 = 6;

/// Counting allocator: one relaxed increment per `alloc`/`realloc`. The
/// count is what the flat-SoA refactor is measured by — a steady-state
/// build through a warm scratch should allocate O(result), not O(rounds).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of one run of `f`.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (ALLOCS.load(Relaxed) - before, out)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

struct SizeResult {
    family: TreeFamily,
    r: u8,
    nodes: usize,
    legacy_p50_us: f64,
    serial_p50_us: f64,
    allocs_legacy: u64,
    allocs_serial: u64,
}

impl SizeResult {
    fn speedup_serial(&self) -> f64 {
        self.legacy_p50_us / self.serial_p50_us
    }

    fn report(&self) -> Value {
        Value::object()
            .with("family", self.family.name())
            .with("host", format!("X({})", self.r))
            .with("nodes", self.nodes)
            .with("legacy_p50_us", self.legacy_p50_us)
            .with("serial_p50_us", self.serial_p50_us)
            .with("speedup_serial", self.speedup_serial())
            .with("allocs_legacy", self.allocs_legacy)
            .with("allocs_serial", self.allocs_serial)
    }
}

fn guest(family: TreeFamily, r: u8, base_seed: u64) -> BinaryTree {
    // Match the serving layer's key shape: per-rank seed derived from the
    // base (default base = the historical constant).
    family.generate_seeded(theorem1_size(r), base_seed + u64::from(r))
}

fn bench_size(family: TreeFamily, r: u8, reps: usize, base_seed: u64) -> SizeResult {
    let tree = guest(family, r, base_seed);
    let nodes = tree.len();
    let serial = EmbedOptions::default();
    // A long-lived scratch: the timed serial builds run in the steady
    // state, exactly like a worker thread's cache misses.
    let mut scratch = Theorem1Scratch::new();
    let warm = embed_with_scratch(&tree, serial, &mut scratch);

    let mut t_legacy = Vec::with_capacity(reps);
    let mut t_serial = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let a = embed_legacy(&tree, EmbedOptions::default());
        t_legacy.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let b = embed_with_scratch(&tree, serial, &mut scratch);
        t_serial.push(t0.elapsed().as_secs_f64());

        // The byte-identical contract, checked on every rep.
        assert_eq!(a.emb, warm.emb, "X({r}): legacy embedding diverged");
        assert_eq!(b.emb, warm.emb, "X({r}): serial embedding diverged");
        assert_eq!(a.log, b.log, "X({r}): build logs diverged");
    }

    let (allocs_legacy, _) = count_allocs(|| embed_legacy(&tree, EmbedOptions::default()));
    let (allocs_serial, _) = count_allocs(|| embed_with_scratch(&tree, serial, &mut scratch));

    SizeResult {
        family,
        r,
        nodes,
        legacy_p50_us: median(&mut t_legacy) * 1e6,
        serial_p50_us: median(&mut t_serial) * 1e6,
        allocs_legacy,
        allocs_serial,
    }
}

fn print_size(s: &SizeResult) {
    eprintln!(
        "{} X({}): {} nodes — legacy {:.0}us, serial {:.0}us ({:.2}x), \
         allocs {} -> {} per build",
        s.family.name(),
        s.r,
        s.nodes,
        s.legacy_p50_us,
        s.serial_p50_us,
        s.speedup_serial(),
        s.allocs_legacy,
        s.allocs_serial,
    );
}

fn read_baseline(path: &str) -> u64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("gate needs the checked-in {path}: {e}"));
    let doc = xtree_json::from_str(&text).expect("baseline must parse");
    doc.get("serving")
        .get("allocs_serial")
        .as_u64()
        .expect("baseline must carry serving.allocs_serial")
}

const USAGE: &str = "[--smoke] [--gate] [--write-baseline] [--seed N]";

fn main() {
    let (smoke, gate, write_baseline, base_seed) = xtree_cli::parse_env("embedbench", USAGE, |a| {
        Ok((
            a.flag("smoke"),
            a.flag("gate"),
            a.flag("write-baseline"),
            a.num_or("seed", 0x5EED_E3B3)?,
        ))
    });
    let baseline_path = "results/BENCH_embed_baseline.json";

    let bst = TreeFamily::RandomBst;
    let serving_only = [(bst, SERVING_R)];
    let gated = GATE_FLOORS.map(|(family, r, _)| (family, r));
    let curve = [
        (bst, 6),
        (bst, 7),
        (bst, 8),
        (bst, 9),
        (bst, 10),
        (bst, 11),
        (bst, 12),
        (TreeFamily::UniformRandom, 12),
        (TreeFamily::Path, 12),
    ];
    let (guests, reps): (&[(TreeFamily, u8)], usize) = if smoke {
        (&serving_only, 2)
    } else if write_baseline {
        (&serving_only, 9)
    } else if gate {
        (&gated, 9)
    } else {
        (&curve, 9)
    };

    let mut results = Vec::new();
    for &(family, r) in guests {
        let s = bench_size(family, r, reps, base_seed);
        print_size(&s);
        results.push(s);
    }
    let serving = results
        .iter()
        .find(|s| s.family == bst && s.r == SERVING_R)
        .expect("sweep always includes the serving size");

    let doc = Value::object()
        .with("bench", "embed-cold-path")
        .with("seed", base_seed)
        .with(
            "workload",
            "seeded random-bst guests at X(6)-X(12) and uniform and path guests at X(12), \
             one Theorem-1 build per rep; legacy (frozen pre-refactor builder and \
             orientation-based separator) vs rebuilt serial (reused scratch); median over \
             interleaved reps; allocation counts from a counting global allocator",
        )
        .with("reps", reps)
        .with(
            "sizes",
            results.iter().map(SizeResult::report).collect::<Value>(),
        )
        .with(
            "acceptance",
            Value::object()
                .with("host", format!("X({SERVING_R})"))
                .with("cold_speedup_serial", serving.speedup_serial())
                .with("target_speedup", 2.0)
                .with(
                    "gate_floors",
                    GATE_FLOORS
                        .iter()
                        .map(|&(family, r, floor)| {
                            Value::object()
                                .with("family", family.name())
                                .with("host", format!("X({r})"))
                                .with("min_speedup", floor)
                        })
                        .collect::<Value>(),
                )
                .with("allocs_serial", serving.allocs_serial)
                .with("allocs_legacy", serving.allocs_legacy),
        );

    if write_baseline {
        let base = Value::object().with("bench", "embed-baseline").with(
            "serving",
            Value::object()
                .with("host", format!("X({SERVING_R})"))
                .with("allocs_serial", serving.allocs_serial),
        );
        xtree_json::write_pretty_file(baseline_path, &base).expect("write baseline");
        eprintln!("wrote {baseline_path}");
        return;
    }

    if gate {
        let base_allocs = read_baseline(baseline_path);
        let limit = (base_allocs as f64 * GATE_ALLOC_SLACK) as u64;
        for (family, r, floor) in GATE_FLOORS {
            let s = results
                .iter()
                .find(|s| s.family == family && s.r == r)
                .expect("gated guests are swept");
            let name = family.name();
            eprintln!(
                "gate: {name} X({r}) speedup {:.2}x (min {floor}x)",
                s.speedup_serial()
            );
            assert!(
                s.speedup_serial() >= floor,
                "perf gate: serial rebuild is only {:.2}x over legacy on {name} at X({r}) \
                 (minimum {floor}x)",
                s.speedup_serial(),
            );
        }
        eprintln!(
            "gate: X({SERVING_R}) allocs {} (baseline {}, limit {})",
            serving.allocs_serial, base_allocs, limit,
        );
        assert!(
            serving.allocs_serial <= limit,
            "perf gate: {} allocs per steady-state build exceeds baseline {} (+{:.0}%)",
            serving.allocs_serial,
            base_allocs,
            (GATE_ALLOC_SLACK - 1.0) * 100.0,
        );
        eprintln!("gate: pass");
        return;
    }

    if smoke {
        eprintln!("smoke mode: skipping results file");
    } else {
        xtree_json::write_pretty_file("results/BENCH_embed.json", &doc).expect("write results");
        eprintln!("wrote results/BENCH_embed.json");
    }
    xtree_bench::print_stdout(&xtree_json::to_string_pretty(&doc));
}
