//! `servebench` — the serving benchmark for `xtree-server`.
//!
//! ```text
//! servebench --server-bin PATH --workload embed_hot|cold_build|host_mix
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it starts `xtree-cli serve` as its own process, sets
//! it up several times, drives the workload closed-loop over two
//! connections for `--seconds`, checks every reply, and prints the
//! end-to-end metrics. With `--trace 1` it sends a fixed prefix of the
//! same streams to a fresh server for its `Stats` counters, then replays
//! that prefix in-process through each layer's functions and prints the
//! per-layer metrics. The last line of stdout is one JSON result object;
//! `README.md` documents every metric. `run.py` builds both binaries and
//! passes `--server-bin`.

mod live;
mod trace;
mod verify;
mod workload;

use live::{ServerProc, Stop};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};
use workload::{Call, Stream, Workload, CACHE_CAP, CONNS, WORKERS};
use xtree_json::Value;
use xtree_server::{Response, WireStats};

/// Counts every allocation, so the replay can report allocations per
/// `handle_compute` call.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        trace::ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `layout` comes from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        trace::ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` comes from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The layers whose self time the replay attributes: span name (a span
/// named `layer` or `layer.<call>`) and metric name.
const LAYERS: [(&str, &str); 15] = [
    ("server.cache", "server.cache.us"),
    ("trees.generate", "trees.generate.us"),
    ("topology.xtree_new", "topology.xtree_new.us"),
    ("core.metrics.evaluate", "core.metrics.evaluate.us"),
    (
        "core.metrics.edge_congestion",
        "core.metrics.edge_congestion.us",
    ),
    ("core.theorem1.build", "core.theorem1.build.us"),
    ("core.theorem2.injectivize", "core.theorem2.injectivize.us"),
    ("host.build_universal", "host.build_universal.us"),
    ("host.build_hypercube", "host.build_hypercube.us"),
    ("host.guest_map", "host.guest_map.us"),
    ("host.distance", "host.distance.us"),
    ("sim.network_xtree", "sim.network_xtree.us"),
    ("sim.simulate", "sim.simulate.us"),
    ("sim.congestion", "sim.congestion.us"),
    ("sim.compute_load", "sim.compute_load.us"),
];

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    server_bin: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut bin, mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value}"))
        };
        match flag.as_str() {
            "--server-bin" => bin = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        server_bin: bin.ok_or("--server-bin is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Index of the `q`-quantile in `len` sorted values (nearest rank).
fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// The `q`-quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// Where the numbers came from.
fn provenance(args: &Args, steal_share: f64) -> Value {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("none (not a git checkout)".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    Value::object()
        .with("git_rev", git_rev)
        .with("source_fnv64", format!("{:016x}", source_hash()))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("connections", CONNS)
        .with("workers", WORKERS)
        .with("cache_cap", CACHE_CAP)
        .with("steal_share", steal_share)
}

/// FNV-1a over the sources the two binaries are built from, so a run
/// from a checkout without git history still names its code.
fn source_hash() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("servebench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Machine steal share between two `/proc/stat` readings.
fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// The result: the last line of stdout, one JSON object.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn print_result(out: &Outcome) {
    let mut metrics = Value::object();
    for &(name, value, unit) in &out.metrics {
        metrics.set(
            name,
            Value::object().with("value", value).with("unit", unit),
        );
    }
    let line = Value::object()
        .with("correct", out.correct)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics);
    println!("{}", xtree_json::to_string(&line));
}

/// Spawns the server, connects, and sends the pre-warm requests: one
/// set-up. Returns the server, its connections, and the set-up time.
fn set_up(
    args: &Args,
    prewarm: &[Call],
) -> Result<(ServerProc, Vec<xtree_server::Client>, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(&args.server_bin)?;
    let mut clients = live::connect(server.addr)?;
    for (i, call) in prewarm.iter().enumerate() {
        let s = live::send(&mut clients[i % CONNS], call.clone());
        match s.reply {
            Ok(Response::EmbedOk { .. }) => {}
            other => return Err(format!("pre-warm {call:?} failed: {other:?}")),
        }
    }
    Ok((server, clients, t0.elapsed().as_secs_f64()))
}

/// Verifies one sample: a transport error, a non-OK reply (including
/// `Overloaded`), or a reply outside the paper bounds is a failure.
fn verify_sample(w: Workload, s: &live::Sample) -> Result<(), String> {
    let cached = match w {
        Workload::EmbedHot => Some(true),
        Workload::ColdBuild => Some(false),
        Workload::HostMix => None,
    };
    match &s.reply {
        Ok(reply) => verify::check(&s.call, reply, cached),
        Err(e) => Err(format!("transport error {e} for {:?}", s.call)),
    }
}

/// The end-to-end run.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let prewarm = workload::prewarm(w, args.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for i in 0..SETUPS {
        let (server, clients, secs) = set_up(args, &prewarm)?;
        setups.push(secs);
        if i + 1 < SETUPS {
            drop(clients);
            server.stop()?;
        } else {
            ready = Some((server, clients));
        }
    }
    let (server, mut clients) = ready.expect("SETUPS ≥ 1");
    let pid = server.pid();
    let streams: Vec<Stream> = (0..CONNS).map(|c| Stream::new(w, args.seed, c)).collect();

    let steal0 = live::steal_ticks()?;
    let cpu0 = live::cpu_seconds(pid)?;
    let start = Instant::now();
    let samples = live::drive(
        &mut clients,
        &streams,
        Stop::At(start + Duration::from_secs(args.seconds)),
    );
    let wall_s = start.elapsed().as_secs_f64();
    let cpu1 = live::cpu_seconds(pid)?;
    let steal1 = live::steal_ticks()?;
    let stats = live::stats(&mut clients[0])?;
    let rss = live::peak_rss_mb(pid)?;
    drop(clients);
    server.stop()?;

    let samples: Vec<&live::Sample> = samples.iter().flatten().collect();
    let mut failures: Vec<String> = samples
        .iter()
        .filter_map(|s| verify_sample(w, s).err())
        .collect();
    let answered: Vec<(&Call, &Response)> = samples
        .iter()
        .filter_map(|s| s.reply.as_ref().ok().map(|r| (&s.call, r)))
        .collect();
    let (compared, mismatches) = verify::compare_sample(&answered, args.seed);
    failures.extend(mismatches);
    if stats.overloaded != 0 {
        failures.push(format!("server bounced {} requests", stats.overloaded));
    }

    let mut lat: Vec<f64> = samples.iter().map(|s| s.us).collect();
    lat.sort_by(f64::total_cmp);
    let requests = samples.len() as u64;
    if requests == 0 {
        return Err("no request completed".into());
    }
    let attempted = requests + compared;
    let failed = failures.len() as u64;
    let (p50, p90) = (quantile(&lat, 0.5), quantile(&lat, 0.9));
    let cpu_us = (cpu1 - cpu0) * 1e6 / requests as f64;
    let setup_s = {
        let mut s = setups.clone();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    let error_rate = failed as f64 / attempted as f64;

    println!(
        "provenance {}",
        xtree_json::to_string(&provenance(args, steal_share(steal0, steal1)))
    );
    print_classes(&samples);
    for f in failures.iter().take(5) {
        println!("FAILED {f}");
    }
    println!(
        "{}: {requests} requests in {}s, {compared} compared in-process; \
         p50_us {p50:.1} us, p90_us {p90:.1} us, cpu_us_per_req {cpu_us:.1} us, \
         error_rate {error_rate} ratio, setup_s {setup_s:.4} s (of {setups:.4?}), \
         peak_rss_mb {rss:.1} MB; not metrics: p99 {:.1} us, {:.1} req/s",
        w.name(),
        args.seconds,
        quantile(&lat, 0.99),
        requests as f64 / wall_s,
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("p50_us", p50, "us"),
            ("p90_us", p90, "us"),
            ("cpu_us_per_req", cpu_us, "us"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
        ],
    })
}

/// Per request class, in order of median latency: share of requests,
/// cumulative share, and median latency; the classes of the samples at
/// the p50 and p90 ranks are marked.
fn print_classes(samples: &[&live::Sample]) {
    let mut by_latency: Vec<&live::Sample> = samples.to_vec();
    by_latency.sort_by(|a, b| a.us.total_cmp(&b.us));
    let at = |q: f64| by_latency[rank(samples.len(), q)];
    let (p50_class, p90_class) = (at(0.5).call.class(), at(0.9).call.class());
    let mut by_class: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for s in samples {
        by_class.entry(s.call.class()).or_default().push(s.us);
    }
    let mut classes: Vec<(String, f64, [f64; 3])> = by_class
        .into_iter()
        .map(|(class, mut us)| {
            us.sort_by(f64::total_cmp);
            let share = us.len() as f64 / samples.len() as f64;
            (class, share, [0.25, 0.5, 0.75].map(|q| quantile(&us, q)))
        })
        .collect();
    classes.sort_by(|a, b| a.2[1].total_cmp(&b.2[1]));
    let mut cum = 0.0;
    for (class, share, [q1, median, q3]) in classes {
        cum += share;
        let mark = match (class == p50_class, class == p90_class) {
            (true, true) => " <p50 <p90",
            (true, false) => " <p50",
            (false, true) => " <p90",
            _ => "",
        };
        println!(
            "class {class}: share {share:.4}, cumulative {cum:.4}, \
             quartiles {q1:.1} {median:.1} {q3:.1} us{mark}"
        );
    }
}

/// The traced run: a fixed prefix sent live for the `Stats` counters,
/// then replayed in-process with spans.
fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let prewarm = workload::prewarm(w, args.seed);
    let len = w.trace_len();
    let streams: Vec<Stream> = (0..CONNS).map(|c| Stream::new(w, args.seed, c)).collect();

    let (server, mut clients, _) = set_up(args, &prewarm)?;
    let before = live::stats(&mut clients[0])?;
    let steal0 = live::steal_ticks()?;
    let samples = live::drive(&mut clients, &streams, Stop::Count((len / CONNS) as u64));
    let steal1 = live::steal_ticks()?;
    let after = live::stats(&mut clients[0])?;
    drop(clients);
    server.stop()?;
    let samples: Vec<&live::Sample> = samples.iter().flatten().collect();
    let mut failures: Vec<String> = samples
        .iter()
        .filter_map(|s| verify_sample(w, s).err())
        .collect();
    let delta = |f: fn(&WireStats) -> u64| f(&after) - f(&before);
    let (hits, misses) = (delta(|s| s.cache_hits), delta(|s| s.cache_misses));
    let simulates = delta(|s| s.simulates);
    let live_hops = delta(|s| s.sim_hops);
    let first_touched = {
        let mut keys: Vec<_> = samples.iter().map(|s| s.call.key()).collect();
        let pool: Vec<_> = prewarm.iter().map(Call::key).collect();
        keys.retain(|k| !pool.contains(k));
        keys.sort_by_key(|k| (k.family, k.nodes, k.seed, k.theorem, k.host));
        keys.dedup();
        keys.len() as u64
    };

    let calls = workload::prefix(w, args.seed, len);
    let spans_out = PathBuf::from(format!(
        "servebench/out/spans-{}-{}.jsonl",
        w.name(),
        args.seed
    ));
    let r = trace::replay(&calls, &prewarm, CACHE_CAP, &spans_out);
    failures.extend(r.mismatches.iter().cloned());
    let n = r.requests as f64;
    let self_us = |prefix: &str| {
        r.self_ns
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(prefix)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e3
            / n
    };
    let layer_us: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&(span, metric)| (metric, self_us(span)))
        .collect();
    let service_us = self_us("server.service");
    let unattributed = service_us - layer_us.iter().map(|(_, us)| us).sum::<f64>();
    let overhead = (r.composed_on_ns as f64 - r.composed_off_ns as f64) / r.composed_off_ns as f64;
    let hit_ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let duplicate_builds = misses as f64 - first_touched as f64;
    let sim_hops = if simulates == 0 {
        0.0
    } else {
        live_hops as f64 / simulates as f64
    };

    let mut metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("server.cache.hit_ratio", hit_ratio, "ratio"),
        ("server.cache.misses", misses as f64, "count"),
        ("server.cache.duplicate_builds", duplicate_builds, "count"),
        (
            "server.queue.overloaded",
            delta(|s| s.overloaded) as f64,
            "count",
        ),
        ("server.service.us", service_us, "us"),
        (
            "server.service.allocs",
            r.service_allocs as f64 / n,
            "count",
        ),
        ("server.service.unattributed_us", unattributed, "us"),
        ("server.wire.codec_ns", self_us("server.wire") * 1e3, "ns"),
        ("server.wire.bytes", r.wire_bytes as f64 / n, "bytes"),
        ("core.theorem1.builds", r.builds as f64, "count"),
        ("core.theorem1.adjust_calls", r.adjust_calls as f64, "count"),
        (
            "core.theorem1.lemma2_splits",
            r.lemma2_splits as f64,
            "count",
        ),
        ("sim.hops", sim_hops, "count"),
        ("trace.span_overhead", overhead, "ratio"),
    ];
    metrics.extend(layer_us.iter().map(|&(metric, us)| (metric, us, "us")));

    // The zeros the workload design predicts, and the one equality the
    // replay and the live server must share.
    let mut predicted: Vec<(String, bool)> = Vec::new();
    if w == Workload::EmbedHot {
        predicted.push(("core.theorem1.builds == 0".into(), r.builds == 0));
        predicted.push(("server.cache.misses == 0".into(), misses == 0));
    }
    if w != Workload::HostMix {
        for (name, v, _) in metrics
            .iter()
            .filter(|m| m.0.starts_with("host.") || m.0.starts_with("sim."))
        {
            predicted.push((format!("{name} == 0"), *v == 0.0));
        }
    }
    if w == Workload::ColdBuild {
        predicted.push(("server.cache.hit_ratio == 0".into(), hit_ratio == 0.0));
        predicted.push((
            "server.cache.duplicate_builds == 0".into(),
            duplicate_builds == 0.0,
        ));
    }
    predicted.push((
        "live Stats sim_hops == replayed hops".into(),
        live_hops == r.sim_hops.0 && live_hops == r.sim_hops.1,
    ));
    for (check, ok) in &predicted {
        println!("predicted {check}: {}", if *ok { "holds" } else { "FAILS" });
        if !ok {
            failures.push(format!("predicted {check} does not hold"));
        }
    }

    println!(
        "provenance {}",
        xtree_json::to_string(&provenance(args, steal_share(steal0, steal1)))
    );
    for f in failures.iter().take(5) {
        println!("FAILED {f}");
    }
    for (name, v, unit) in &metrics {
        println!("{name} {v} {unit}");
    }
    println!(
        "{}: {} sent live, {} replayed, spans in {}",
        w.name(),
        samples.len(),
        r.requests,
        spans_out.display()
    );
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: samples.len() as u64 + r.requests,
        failed: failures.len() as u64,
        metrics,
    })
}

fn main() {
    let result = parse_args().and_then(|args| {
        if args.trace {
            traced(&args)
        } else {
            end_to_end(&args)
        }
    });
    match result {
        Ok(out) => print_result(&out),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
