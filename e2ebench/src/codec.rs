//! Replays a sample of received messages through the wire path the
//! driver thread never sees: the reader/writer threads' codec and
//! framing work.

use icc_gossip::GossipMessage;
use icc_types::codec::{decode_from_slice, encode_to_vec};
use icc_types::frame::{encode_frame, FrameBuffer};
use std::hint::black_box;
use std::time::Instant;

/// Replays per sample; the fastest replay of each step is kept.
const REPLAYS: usize = 5;

/// Nanoseconds per KiB of payload for each wire step.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecCost {
    /// `encode_to_vec`.
    pub encode_ns_per_kib: f64,
    /// `decode_from_slice`.
    pub decode_ns_per_kib: f64,
    /// `encode_frame` plus `FrameBuffer::next_frame` (the CRC both ways).
    pub frame_ns_per_kib: f64,
}

/// Times the wire steps over `sample`. Fails if a message does not
/// survive the round trip.
pub fn replay(sample: &[GossipMessage]) -> Result<CodecCost, String> {
    if sample.is_empty() {
        return Ok(CodecCost::default());
    }
    let payloads: Vec<Vec<u8>> = sample.iter().map(encode_to_vec).collect();
    for (m, p) in sample.iter().zip(&payloads) {
        let back: GossipMessage =
            decode_from_slice(p).map_err(|e| format!("codec replay: decode failed: {e:?}"))?;
        if &back != m {
            return Err("codec replay: message changed in a round trip".into());
        }
    }
    let kib = payloads.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let fastest = |f: &dyn Fn()| {
        (0..REPLAYS)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
            / kib
    };
    let encode_ns_per_kib = fastest(&|| {
        for m in sample {
            black_box(encode_to_vec(black_box(m)));
        }
    });
    let decode_ns_per_kib = fastest(&|| {
        for p in &payloads {
            let m: GossipMessage = decode_from_slice(black_box(p)).expect("checked above");
            black_box(m);
        }
    });
    let frame_ns_per_kib = fastest(&|| {
        let mut fb = FrameBuffer::new();
        for p in &payloads {
            fb.extend(&encode_frame(black_box(p)));
            black_box(fb.next_frame().expect("own frame").expect("complete frame"));
        }
    });
    Ok(CodecCost {
        encode_ns_per_kib,
        decode_ns_per_kib,
        frame_ns_per_kib,
    })
}
