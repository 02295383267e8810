//! The `XCKPT1` checkpoint container: a versioned binary file holding
//! everything needed to continue an interrupted experiment.
//!
//! Layout (all integers LEB128 via `xtree_telemetry::varint`, like the
//! trace format):
//!
//! ```text
//! "XCKPT1\n"                         magic + version
//! session blob    (len, bytes)       SessionSnapshot — cursor, engine
//!                                    clock, fault state, plan, reports
//! embedding       (height, n, ids)   the current XEmbedding, heap ids
//! config blob     (len, utf-8)       caller-defined (the CLI stores the
//!                                    flags needed to rebuild tree + host)
//! trace blob      (len, bytes)       the XTRACE1 telemetry stream so far
//! ```
//!
//! The trace bytes ride inside the checkpoint so a resumed run can append
//! to the *same* stream via `TraceRecorder::resume` — the property the
//! byte-identity tests pin down: run-to-completion and
//! run/checkpoint/resume produce identical trace files.

use crate::error::SimError;
use crate::session::SessionSnapshot;
use xtree_core::XEmbedding;
use xtree_telemetry::varint::{decode_u64, encode_u64};
use xtree_topology::XTREE_MAX_HEIGHT;

/// File magic; the trailing digit is the format version.
pub const MAGIC: &[u8; 7] = b"XCKPT1\n";

/// A parsed checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The serialised session (see [`SessionSnapshot`]).
    pub session: SessionSnapshot,
    /// The embedding at checkpoint time (repairs included).
    pub embedding: XEmbedding,
    /// Opaque caller payload; the CLI stores the run configuration here.
    pub config: String,
    /// The telemetry trace recorded up to the checkpoint.
    pub trace: Vec<u8>,
}

fn bad(reason: impl Into<String>) -> SimError {
    SimError::BadCheckpoint {
        reason: reason.into(),
    }
}

fn word(bytes: &[u8], pos: &mut usize) -> Result<u64, SimError> {
    decode_u64(bytes, pos).ok_or_else(|| bad("truncated"))
}

fn take<'b>(bytes: &'b [u8], pos: &mut usize, len: usize) -> Result<&'b [u8], SimError> {
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| bad(format!("blob of {len} bytes overruns the file")))?;
    let out = &bytes[*pos..end];
    *pos = end;
    Ok(out)
}

/// Serialises a checkpoint to its on-disk bytes.
pub fn encode_checkpoint(c: &Checkpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        MAGIC.len() + c.session.bytes().len() + c.embedding.map.len() * 2 + c.trace.len() + 64,
    );
    buf.extend_from_slice(MAGIC);
    encode_u64(&mut buf, c.session.bytes().len() as u64);
    buf.extend_from_slice(c.session.bytes());
    encode_u64(&mut buf, u64::from(c.embedding.height));
    encode_u64(&mut buf, c.embedding.map.len() as u64);
    for &id in &c.embedding.map {
        encode_u64(&mut buf, u64::from(id));
    }
    encode_u64(&mut buf, c.config.len() as u64);
    buf.extend_from_slice(c.config.as_bytes());
    encode_u64(&mut buf, c.trace.len() as u64);
    buf.extend_from_slice(&c.trace);
    buf
}

/// Parses checkpoint bytes, validating framing and the embedding's shape
/// (full session validation happens in `Session::resume`).
///
/// # Errors
/// [`SimError::BadCheckpoint`] on a wrong magic, truncation, trailing
/// bytes, an X-tree taller than [`XTREE_MAX_HEIGHT`], an out-of-host heap
/// id, or non-UTF-8 config.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, SimError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(bad("missing XCKPT1 magic (not a checkpoint file?)"));
    }
    let mut pos = MAGIC.len();
    let session_len = word(bytes, &mut pos)? as usize;
    let session = SessionSnapshot::from_bytes(take(bytes, &mut pos, session_len)?.to_vec());
    let height = word(bytes, &mut pos)?;
    // No X-tree is taller than XTree::new builds, and the bound keeps
    // every heap id inside the embedding's u32 map.
    let height = u8::try_from(height)
        .ok()
        .filter(|&h| h <= XTREE_MAX_HEIGHT)
        .ok_or_else(|| {
            bad(format!(
                "X-tree height {height} exceeds the maximum {XTREE_MAX_HEIGHT}"
            ))
        })?;
    let host_len = (1u32 << (height + 1)) - 1;
    let n = word(bytes, &mut pos)?;
    let mut map = Vec::new();
    for i in 0..n {
        let id = word(bytes, &mut pos)?;
        if id >= u64::from(host_len) {
            return Err(bad(format!(
                "guest {i} mapped to heap id {id}, outside X({height})"
            )));
        }
        map.push(id as u32);
    }
    let embedding = XEmbedding { height, map };
    let config_len = word(bytes, &mut pos)? as usize;
    let config = std::str::from_utf8(take(bytes, &mut pos, config_len)?)
        .map_err(|_| bad("config blob is not UTF-8"))?
        .to_owned();
    let trace_len = word(bytes, &mut pos)? as usize;
    let trace = take(bytes, &mut pos, trace_len)?.to_vec();
    if pos != bytes.len() {
        return Err(bad(format!("{} trailing bytes", bytes.len() - pos)));
    }
    Ok(Checkpoint {
        session,
        embedding,
        config,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            session: SessionSnapshot::from_bytes(vec![1, 2, 3, 42]),
            embedding: XEmbedding {
                height: 2,
                map: (0..7).collect(),
            },
            config: r#"{"tree":"complete","nodes":7}"#.into(),
            trace: b"XTRACE1\n-pretend-trace".to_vec(),
        }
    }

    #[test]
    fn round_trips_exactly() {
        let c = sample();
        let bytes = encode_checkpoint(&c);
        assert_eq!(&bytes[..7], MAGIC);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn rejects_wrong_magic_truncation_and_trailing_bytes() {
        assert!(decode_checkpoint(b"not a checkpoint").is_err());
        assert!(decode_checkpoint(b"XCKP").is_err());
        let bytes = encode_checkpoint(&sample());
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    decode_checkpoint(&bytes[..cut]),
                    Err(SimError::BadCheckpoint { .. })
                ),
                "cut at {cut}"
            );
        }
        let mut long = bytes.clone();
        long.push(7);
        assert!(decode_checkpoint(&long).is_err());
    }

    #[test]
    fn rejects_out_of_host_images() {
        let mut c = sample();
        c.embedding.map[3] = 7; // X(2) has ids 0..7
        let bytes = encode_checkpoint(&c);
        let err = decode_checkpoint(&bytes).unwrap_err();
        assert!(err.to_string().contains("outside X(2)"), "{err}");
    }

    #[test]
    fn rejects_heights_above_the_tallest_xtree() {
        let mut c = sample();
        c.embedding.height = XTREE_MAX_HEIGHT;
        assert_eq!(decode_checkpoint(&encode_checkpoint(&c)).unwrap(), c);
        for height in [XTREE_MAX_HEIGHT + 1, 40, 60, 255] {
            c.embedding.height = height;
            let err = decode_checkpoint(&encode_checkpoint(&c)).unwrap_err();
            assert!(
                matches!(err, SimError::BadCheckpoint { .. }),
                "height {height}: {err}"
            );
            assert!(err.to_string().contains("exceeds the maximum"), "{err}");
        }
    }
}
