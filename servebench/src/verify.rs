//! Reply checks: every reply against the paper's bound for its theorem
//! and host, and a sample against the in-process service.

use crate::workload::Call;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use xtree_core::theorem1::optimal_height;
use xtree_host::{HOST_HYPERCUBE, HOST_UNIVERSAL, HOST_XTREE};
use xtree_server::service::handle_compute;
use xtree_server::{EmbeddingCache, Request, Response, ServerMetrics, WORKLOAD_ALL};

/// Checks one reply. `cached`, when given, is the cache outcome the
/// workload guarantees (all hits on `embed_hot`, all misses on
/// `cold_build`).
pub fn check(call: &Call, reply: &Response, cached: Option<bool>) -> Result<(), String> {
    let key = call.key();
    let fail = |what: &str| Err(format!("{what}: {call:?} -> {reply:?}"));
    match (&call.req, reply) {
        (
            Request::Embed { .. },
            &Response::EmbedOk {
                height,
                dilation,
                max_load,
                injective,
                cached: was_cached,
                ..
            },
        ) => {
            if cached.is_some_and(|c| c != was_cached) {
                return fail("unexpected cache outcome");
            }
            let r = optimal_height(key.nodes as usize);
            // Theorem 2 lifts the Theorem-1 map four levels down.
            let want_height = if key.theorem == 2 { r + 4 } else { r };
            if height != want_height {
                return fail("wrong host height");
            }
            // (max load, max dilation, must be injective) per the paper.
            let (load, dil, inj) = match (key.theorem, call.host) {
                (1, HOST_XTREE) => (16, 3, false),
                (2, HOST_XTREE) => (1, 11, true),
                (1, HOST_HYPERCUBE) => (16, 4, false),
                (1, HOST_UNIVERSAL) => (1, 10, true),
                _ => return fail("no paper bound for this theorem and host"),
            };
            if max_load > load || dilation > dil || (inj && !injective) {
                return fail("paper bound violated");
            }
            Ok(())
        }
        (&Request::Simulate { workload, .. }, Response::SimulateOk { reports, .. }) => {
            let want: Vec<u8> = if workload == WORKLOAD_ALL {
                (0..4).collect()
            } else {
                vec![workload]
            };
            let got: Vec<u8> = reports.iter().map(|r| r.workload).collect();
            if got != want {
                return fail("wrong engine workloads");
            }
            if reports
                .iter()
                .any(|r| r.cycles < r.ideal_cycles || r.max_link_traffic == 0)
            {
                return fail("simulation report out of range");
            }
            Ok(())
        }
        _ => fail("unexpected reply"),
    }
}

/// The reply with its `cached` flag cleared, for comparisons that must
/// not depend on what was built first.
fn uncached(reply: &Response) -> Response {
    let mut r = reply.clone();
    match &mut r {
        Response::EmbedOk { cached, .. } | Response::SimulateOk { cached, .. } => *cached = false,
        _ => {}
    }
    r
}

/// Requests compared against the in-process service after timing.
const SAMPLE: usize = 12;

/// Compares a seeded sample of distinct requests the server answered
/// with what `handle_compute` returns in this process, ignoring
/// `cached`. Returns (compared, mismatches).
pub fn compare_sample(answered: &[(&Call, &Response)], seed: u64) -> (u64, Vec<String>) {
    let mut distinct: Vec<(&Call, &Response)> = Vec::new();
    for &(call, reply) in answered {
        if !distinct.iter().any(|(c, _)| *c == call) {
            distinct.push((call, reply));
        }
    }
    // A seeded shuffle, then the first SAMPLE.
    distinct.sort_by_key(|(c, _)| {
        let op = match c.req {
            Request::Simulate { workload, .. } => u16::from(workload),
            _ => 256,
        };
        let mut h = DefaultHasher::new();
        (seed, c.key(), op).hash(&mut h);
        h.finish()
    });
    distinct.truncate(SAMPLE);
    let cache = EmbeddingCache::new(SAMPLE);
    let metrics = ServerMetrics::new();
    let mismatches = distinct
        .iter()
        .filter_map(|&(call, reply)| {
            let local = handle_compute(&call.req, call.host, &cache, &metrics);
            (uncached(&local) != uncached(reply))
                .then(|| format!("server {reply:?} != in-process {local:?} for {call:?}"))
        })
        .collect();
    (distinct.len() as u64, mismatches)
}
