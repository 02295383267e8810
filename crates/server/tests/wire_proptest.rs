//! Property tests pinning the XWIRE1 codec: every representable message
//! survives encode → decode byte-identically (and re-encodes to the same
//! bytes), while truncated, corrupted, or oversized inputs come back as
//! typed [`WireError`]s — never panics, never garbage accepted silently.
//!
//! Requests run through the one decoder servers and routers use,
//! [`decode_request_host`], in all four trailer shapes (no trailing
//! fields, a budget, a host tag, both). A golden table pins the bytes of
//! each shape, and the properties compare every shape with a reference
//! layout written out in this file, so the compatibility contract does
//! not rest on comparing one in-tree encoder with another.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xtree_server::wire::{
    decode_request_host, decode_response, encode_request_host, encode_response, frame, read_frame,
    write_request_host, HealthInfo, MAGIC, MAX_PAYLOAD, NO_BUDGET,
};
use xtree_server::{Request, Response, WireError, WireReport, WireStats, WORKLOAD_ALL};

/// Records the largest single allocation each thread makes, so a test
/// can check that decoding never reserves memory a payload does not back.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `GlobalAlloc` contract passes through to
        // the system allocator unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: as for `dealloc`; the caller's size contract passes
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// The largest allocation this thread makes while running `f`, and its
/// result.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// The `k`-th request shape, filled from raw field material.
fn request_from(k: u8, family: u8, nodes: u64, seed: u64, theorem: u8, workload: u8) -> Request {
    match k % 5 {
        0 => Request::Embed {
            family,
            nodes,
            seed,
            theorem,
        },
        1 => Request::Simulate {
            family,
            nodes,
            seed,
            theorem,
            workload,
        },
        2 => Request::Stats,
        3 => Request::Health,
        _ => Request::Shutdown,
    }
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u64>(),
        any::<u64>(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(k, family, nodes, seed, theorem, workload)| {
            request_from(k, family, nodes, seed, theorem, workload)
        })
}

/// A request's optional trailing fields: `(budget, host)`. The four
/// combinations are the four trailer shapes, drawn equally often; budgets
/// stay below the [`NO_BUDGET`] sentinel, so every pair round-trips.
fn arb_trailer() -> impl Strategy<Value = (Option<u64>, Option<u8>)> {
    (any::<bool>(), 0..NO_BUDGET, any::<bool>(), any::<u8>()).prop_map(
        |(has_budget, budget, has_host, host)| {
            (has_budget.then_some(budget), has_host.then_some(host))
        },
    )
}

/// Any budget word. The sentinel and the word below it are drawn a
/// quarter of the time each; uniform draws would all but never hit them.
fn arb_budget() -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>()).prop_map(|(k, us)| match k {
        0 => NO_BUDGET,
        1 => NO_BUDGET - 1,
        _ => us,
    })
}

/// The payload of a request sent with the given trailing fields.
fn encode((req, budget, host): &(Request, Option<u64>, Option<u8>)) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request_host(req, *budget, *host, &mut buf);
    buf
}

/// Appends `v` as LEB128. Written out here, like [`legacy_with`], so the
/// reference payloads share no code with the encoder under test.
fn leb128(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// A request laid out as the first protocol version sends it (the tag,
/// then the body's fields as LEB128 words), followed by `trailer`.
fn legacy_with(req: &Request, trailer: &[u64]) -> Vec<u8> {
    let (tag, body): (u8, Vec<u64>) = match *req {
        Request::Embed {
            family,
            nodes,
            seed,
            theorem,
        } => (1, vec![family.into(), nodes, seed, theorem.into()]),
        Request::Simulate {
            family,
            nodes,
            seed,
            theorem,
            workload,
        } => (
            2,
            vec![family.into(), nodes, seed, theorem.into(), workload.into()],
        ),
        Request::Stats => (3, vec![]),
        Request::Health => (4, vec![]),
        Request::Shutdown => (5, vec![]),
    };
    let mut buf = vec![tag];
    for &w in body.iter().chain(trailer) {
        leb128(&mut buf, w);
    }
    buf
}

fn arb_report() -> impl Strategy<Value = WireReport> {
    (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(workload, cycles, ideal_cycles, max_link_traffic)| WireReport {
            workload,
            cycles,
            ideal_cycles,
            max_link_traffic,
        },
    )
}

fn stats_from(v: &[u64], partial: bool) -> WireStats {
    WireStats {
        requests: v[0],
        embeds: v[1],
        simulates: v[2],
        overloaded: v[3],
        errors: v[4],
        cache_hits: v[5],
        cache_misses: v[6],
        cache_entries: v[7],
        queue_depth: v[8],
        latency_count: v[9],
        latency_p50_us: v[10],
        latency_p95_us: v[11],
        latency_p99_us: v[12],
        sim_hops: v[13],
        sim_delivered: v[14],
        partial,
    }
}

/// The `k`-th response shape. `words` always holds 15 values; `msg` is
/// ASCII (any byte < 128 is valid UTF-8).
fn arb_response() -> impl Strategy<Value = Response> {
    (
        any::<u8>(),
        proptest::collection::vec(any::<u64>(), 15..16),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        proptest::collection::vec(0u8..128, 0..48),
        proptest::collection::vec(arb_report(), 0..6),
    )
        .prop_map(
            |(k, words, (injective, cached, partial), msg, reports)| match k % 7 {
                0 => Response::EmbedOk {
                    height: words[0] as u8,
                    dilation: words[1],
                    max_load: words[2],
                    congestion: words[3],
                    injective,
                    cached,
                },
                1 => Response::SimulateOk { cached, reports },
                2 => Response::StatsOk(stats_from(&words, partial)),
                // Both health shapes: bare (pre-cluster peers) and with
                // the trailing load fields.
                3 => Response::HealthOk {
                    info: cached.then(|| HealthInfo {
                        queue_depth: words[0],
                        cache_hits: words[1],
                        cache_misses: words[2],
                        uptime_s: words[3],
                    }),
                },
                4 => Response::ShutdownOk { pending: words[0] },
                5 => Response::Overloaded {
                    depth: words[0],
                    cap: words[1],
                },
                _ => Response::Error {
                    code: words[0] as u8,
                    message: String::from_utf8(msg).expect("ASCII bytes"),
                },
            },
        )
}

proptest! {
    // Any request in any trailer shape decodes to exactly the fields that
    // were sent, and re-encodes to the same bytes.
    #[test]
    fn request_round_trip_is_byte_identical(req in arb_request(), (budget, host) in arb_trailer()) {
        let sent = (req, budget, host);
        let bytes = encode(&sent);
        let back = decode_request_host(&bytes).expect("own encoding must decode");
        prop_assert_eq!(&back, &sent);
        prop_assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn response_round_trip_is_byte_identical(resp in arb_response()) {
        let mut bytes = Vec::new();
        encode_response(&resp, &mut bytes);
        let back = decode_response(&bytes).expect("own encoding must decode");
        prop_assert_eq!(&back, &resp);
        let mut again = Vec::new();
        encode_response(&back, &mut again);
        prop_assert_eq!(again, bytes);
    }

    #[test]
    fn framed_request_survives_the_stream(req in arb_request(), (budget, host) in arb_trailer()) {
        let sent = (req, budget, host);
        let framed = frame(&encode(&sent));
        let mut cursor = &framed[..];
        let got = read_frame(&mut cursor).unwrap().expect("one frame in");
        prop_assert_eq!(decode_request_host(&got).unwrap(), sent);
        prop_assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after");
    }

    // The one-word shape carries any budget, `u64::MAX` included: the
    // sentinel exists only beside a host tag.
    #[test]
    fn deadline_budget_round_trips(req in arb_request(), budget_us in arb_budget()) {
        let sent = (req, Some(budget_us), None);
        let bytes = encode(&sent);
        let back = decode_request_host(&bytes).expect("own encoding must decode");
        prop_assert_eq!(&back, &sent);
        prop_assert_eq!(encode(&back), bytes);
    }

    // A host tag is two words after the legacy body: the budget, clamped
    // below the sentinel, or the sentinel itself when there is none.
    #[test]
    fn host_field_round_trips(
        req in arb_request(),
        has_budget in any::<bool>(),
        budget_word in arb_budget(),
        host in any::<u8>(),
    ) {
        let budget_us = has_budget.then_some(budget_word);
        let clamped = budget_us.map(|us| us.min(NO_BUDGET - 1));
        let bytes = encode(&(req.clone(), budget_us, Some(host)));
        let expected = legacy_with(&req, &[clamped.unwrap_or(NO_BUDGET), u64::from(host)]);
        prop_assert_eq!(&bytes, &expected);
        let back = decode_request_host(&bytes).expect("own encoding must decode");
        prop_assert_eq!(&back, &(req, clamped, Some(host)));
        prop_assert_eq!(encode(&back), bytes);
    }

    // Backward compatibility without keeping an older decoder: a request
    // with no trailing fields is the legacy payload byte for byte, and
    // that payload is a prefix of the request's encoding in every trailer
    // shape, so a peer that stops after the body sees the added fields as
    // trailing bytes.
    #[test]
    fn budgetless_frames_are_bit_identical_to_legacy(
        req in arb_request(),
        (budget, host) in arb_trailer(),
    ) {
        let legacy = legacy_with(&req, &[]);
        prop_assert_eq!(&encode(&(req.clone(), None, None)), &legacy);
        prop_assert_eq!(decode_request_host(&legacy).unwrap(), (req.clone(), None, None));
        let full = encode(&(req, budget, host));
        prop_assert!(full.starts_with(&legacy), "{:?} does not extend {:?}", full, legacy);
    }

    // Without a host tag, a budgeted request is the legacy payload plus
    // exactly one budget word: the frame budget-aware peers already send.
    #[test]
    fn hostless_frames_are_bit_identical_to_legacy(
        req in arb_request(),
        has_budget in any::<bool>(),
        budget_word in arb_budget(),
    ) {
        let budget_us = has_budget.then_some(budget_word);
        let bytes = encode(&(req.clone(), budget_us, None));
        let words: Vec<u64> = budget_us.into_iter().collect();
        prop_assert_eq!(&bytes, &legacy_with(&req, &words));
        prop_assert_eq!(decode_request_host(&bytes).unwrap(), (req, budget_us, None));
    }

    // Bytes after the host word are a protocol violation: the decoder
    // accepts at most two trailing words, never arbitrarily many.
    #[test]
    fn garbage_after_the_host_field_is_refused(
        req in arb_request(),
        host in any::<u8>(),
        junk in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut bytes = Vec::new();
        encode_request_host(&req, Some(1), Some(host), &mut bytes);
        bytes.extend_from_slice(&junk);
        let got = decode_request_host(&bytes);
        prop_assert!(
            matches!(got, Err(WireError::Trailing { .. } | WireError::BadField { .. })),
            "trailing garbage must be refused, got {:?}", got
        );
    }

    // Cutting an encoded message anywhere strictly inside it must yield a
    // typed error — or, if LEB128 field boundaries happen to align into a
    // shorter valid message (a request that lost its trailing fields),
    // at least never the original one. No panics.
    #[test]
    fn truncated_payloads_error_or_differ(
        req in arb_request(),
        (budget, host) in arb_trailer(),
        cut_sel in any::<usize>(),
    ) {
        let sent = (req, budget, host);
        let bytes = encode(&sent);
        let cut = cut_sel % bytes.len();
        match decode_request_host(&bytes[..cut]) {
            Err(
                WireError::Truncated
                | WireError::BadTag { .. }
                | WireError::Trailing { .. }
                | WireError::BadField { .. },
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {}", e),
            Ok(other) => prop_assert_ne!(other, sent),
        }
    }

    // Same discipline for truncated frames read off a socket: the reader
    // reports a typed error, never panics, never parses a short frame.
    #[test]
    fn truncated_frames_error(
        req in arb_request(),
        (budget, host) in arb_trailer(),
        cut_sel in any::<usize>(),
    ) {
        let framed = frame(&encode(&(req, budget, host)));
        let cut = cut_sel % framed.len();
        let mut cursor = &framed[..cut];
        match read_frame(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0),
            Ok(Some(_)) => prop_assert!(false, "short frame must not parse"),
            Err(WireError::BadMagic) => prop_assert!(cut < MAGIC.len()),
            Err(WireError::Truncated | WireError::Io(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {}", e),
        }
    }

    // Single-bit corruption: decode must return a typed error or a
    // different (valid) message — silently-equal is the one forbidden
    // outcome, and panics are impossible.
    #[test]
    fn corrupted_bytes_never_panic(
        req in arb_request(),
        (budget, host) in arb_trailer(),
        idx_sel in any::<usize>(),
        bit in 0u8..8,
    ) {
        let sent = (req, budget, host);
        let mut bytes = encode(&sent);
        let i = idx_sel % bytes.len();
        bytes[i] ^= 1 << bit;
        if let Ok(other) = decode_request_host(&bytes) {
            prop_assert_ne!(other, sent);
        }
    }

    // Garbage of any shape, alone or after a valid request in any trailer
    // shape: decoding must be total (no panics).
    #[test]
    fn garbage_decodes_totally(
        req in arb_request(),
        (budget, host) in arb_trailer(),
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let _ = decode_request_host(&garbage);
        let _ = decode_response(&garbage);
        let mut cursor = &garbage[..];
        let _ = read_frame(&mut cursor);
        let mut bytes = encode(&(req, budget, host));
        bytes.extend_from_slice(&garbage);
        let _ = decode_request_host(&bytes);
    }
}

/// Parses a golden row's space-separated hex bytes.
fn hex(s: &str) -> Vec<u8> {
    s.split_whitespace()
        .map(|b| u8::from_str_radix(b, 16).expect("hex byte"))
        .collect()
}

/// Hand-written payloads for every request kind in each of the four
/// trailer shapes. These bytes are the protocol: a change to any of them
/// breaks every deployed peer, whatever the encoder and decoder agree on.
#[test]
fn golden_request_bytes_encode_and_decode_exactly() {
    let embed = Request::Embed {
        family: 3,
        nodes: 496,
        seed: 7,
        theorem: 1,
    };
    let simulate = Request::Simulate {
        family: 11,
        nodes: 2032,
        seed: 300,
        theorem: 2,
        workload: WORKLOAD_ALL,
    };
    #[rustfmt::skip]
    let rows = [
        (embed.clone(), None, None, "01 03 F0 03 07 01"),
        (embed.clone(), Some(250_000), None, "01 03 F0 03 07 01 90 A1 0F"),
        (embed.clone(), None, Some(1), "01 03 F0 03 07 01 FF FF FF FF FF FF FF FF FF 01 01"),
        (embed, Some(250_000), Some(2), "01 03 F0 03 07 01 90 A1 0F 02"),
        (simulate.clone(), None, None, "02 0B F0 0F AC 02 02 FF 01"),
        (simulate.clone(), Some(0), None, "02 0B F0 0F AC 02 02 FF 01 00"),
        (simulate.clone(), None, Some(2), "02 0B F0 0F AC 02 02 FF 01 FF FF FF FF FF FF FF FF FF 01 02"),
        (simulate, Some(1), Some(0), "02 0B F0 0F AC 02 02 FF 01 01 00"),
        (Request::Stats, None, None, "03"),
        (Request::Stats, Some(127), None, "03 7F"),
        (Request::Stats, None, Some(0), "03 FF FF FF FF FF FF FF FF FF 01 00"),
        (Request::Stats, Some(128), Some(1), "03 80 01 01"),
        (Request::Health, None, None, "04"),
        (Request::Health, Some(16_383), None, "04 FF 7F"),
        (Request::Health, None, Some(255), "04 FF FF FF FF FF FF FF FF FF 01 FF 01"),
        (Request::Health, Some(16_384), Some(2), "04 80 80 01 02"),
        (Request::Shutdown, None, None, "05"),
        (Request::Shutdown, Some(1_000_000), None, "05 C0 84 3D"),
        (Request::Shutdown, None, Some(1), "05 FF FF FF FF FF FF FF FF FF 01 01"),
        (Request::Shutdown, Some(NO_BUDGET - 1), Some(0), "05 FE FF FF FF FF FF FF FF FF 01 00"),
    ];
    for (req, budget, host, golden) in rows {
        let sent = (req, budget, host);
        let bytes = hex(golden);
        assert_eq!(encode(&sent), bytes, "encoding of {sent:?}");
        assert_eq!(
            decode_request_host(&bytes).unwrap(),
            sent,
            "decoding {golden}"
        );
    }
    // The frame around a payload: magic, LEB128 length, payload.
    assert_eq!(
        frame(&hex("01 03 F0 03 07 01")),
        hex("58 57 49 52 45 31 0A 06 01 03 F0 03 07 01")
    );
}

/// The budget word a host tag clamps, and the same word without one.
#[test]
fn golden_budget_clamps_below_the_sentinel() {
    #[rustfmt::skip]
    let rows = [
        // Beside a host tag, a u64::MAX budget is clamped one below the
        // sentinel rather than misread as "no budget" ...
        (Some(u64::MAX), Some(0), "03 FE FF FF FF FF FF FF FF FF 01 00", Some(u64::MAX - 1)),
        // ... while alone it is a real budget: the one-word shape has no
        // sentinel.
        (Some(u64::MAX), None, "03 FF FF FF FF FF FF FF FF FF 01", Some(u64::MAX)),
    ];
    for (budget, host, golden, decoded) in rows {
        let bytes = hex(golden);
        assert_eq!(encode(&(Request::Stats, budget, host)), bytes, "{golden}");
        assert_eq!(
            decode_request_host(&bytes).unwrap(),
            (Request::Stats, decoded, host),
            "{golden}"
        );
    }
}

/// A `SimulateOk` header that claims 2^20 reports in a five-byte payload
/// must not reserve room for them: the reports the payload can actually
/// hold bound the allocation.
#[test]
fn report_counts_do_not_reserve_beyond_the_payload() {
    let payload = hex("81 00 80 80 40");
    let (largest, got) = largest_alloc(|| decode_response(&payload));
    assert!(
        matches!(got, Err(WireError::Truncated)),
        "five bytes hold no report: {got:?}"
    );
    assert!(
        largest <= 1024,
        "decoding allocated {largest} bytes at once"
    );
}

#[test]
fn oversized_frame_declarations_are_refused() {
    let mut framed = Vec::from(&MAGIC[..]);
    // Declare MAX_PAYLOAD + 1 bytes; the reader must refuse before
    // allocating or reading that much.
    leb128(&mut framed, MAX_PAYLOAD + 1);
    let mut cursor = &framed[..];
    match read_frame(&mut cursor) {
        Err(WireError::TooLarge { len }) => assert_eq!(len, MAX_PAYLOAD + 1),
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

#[test]
fn writer_and_reader_agree_over_a_buffer() {
    let reqs = [
        Request::Health,
        Request::Embed {
            family: 4,
            nodes: 1008,
            seed: 7,
            theorem: 1,
        },
        Request::Stats,
        Request::Shutdown,
    ];
    let trailers = [
        (None, None),
        (Some(0), None),
        (None, Some(1)),
        (Some(5), Some(2)),
    ];
    let mut buf = Vec::new();
    for (req, (budget, host)) in reqs.iter().zip(trailers) {
        write_request_host(&mut buf, req, budget, host).unwrap();
    }
    let mut cursor = &buf[..];
    for (req, (budget, host)) in reqs.iter().zip(trailers) {
        let bytes = read_frame(&mut cursor).unwrap().expect("frame present");
        assert_eq!(
            decode_request_host(&bytes).unwrap(),
            (req.clone(), budget, host)
        );
    }
    assert!(read_frame(&mut cursor).unwrap().is_none());
}
