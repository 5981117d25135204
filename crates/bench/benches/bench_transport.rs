//! The byte lane's data path in isolation, single-thread (DESIGN.md §12).
//!
//! 1. **Encode/decode** of `WEdge` and `CEdge` buckets through
//!    `wire::write_slice` / `wire::read_vec` — the code the flat
//!    exchange runs per (peer, round), and what `benchmark/`'s
//!    `comm.wire_roundtrip_mb_per_s` row measures on the workload's own
//!    `WEdge` slice.
//! 2. **Coalesced vs per-message framing**: one `CH_DATA` frame
//!    carrying a whole bucket against one frame per element (the shape
//!    before coalescing), both reassembled through `wire::split_frame` —
//!    §12's "one frame per (peer, round)".
//! 3. **Pooled vs fresh buffers**: serializing into a buffer whose
//!    capacity survives from the previous round against allocating a
//!    new `Vec` each round — §12's send-buffer pool.
//!
//! Sizes span 2^10 … 2^20 elements, the per-peer bucket range of the
//! benchmark's workloads.

use kamsta_bench::{median_ms, ms_cell, ratio_cell, Table, SAMPLES};
use kamsta_comm::wire::{self, FrameHeader, Wire, WireReader, CH_DATA, FRAME_HEADER_LEN};
use kamsta_graph::{CEdge, WEdge};

fn wedges(n: usize) -> Vec<WEdge> {
    (0..n as u64)
        .map(|i| {
            let u = i.wrapping_mul(2_654_435_761) % (1 << 20);
            let v = i.wrapping_mul(40_503).wrapping_add(1) % (1 << 20);
            WEdge::new(u, v, ((i * 7 + 3) % 1_000_000) as u32)
        })
        .collect()
}

fn cedges(n: usize) -> Vec<CEdge> {
    wedges(n)
        .into_iter()
        .enumerate()
        .map(|(i, e)| CEdge::from_wedge(e, i as u64))
        .collect()
}

fn roundtrip<T: Wire>(bucket: &[T], scratch: &mut Vec<u8>) -> usize {
    scratch.clear();
    wire::write_slice(scratch, bucket);
    let mut r = WireReader::new(scratch);
    let out = wire::read_vec::<T>(&mut r).expect("self-encoded bucket decodes");
    r.finish().expect("no trailing bytes");
    out.len()
}

/// Reassemble a byte stream frame by frame, decoding each payload as a
/// `WEdge` bucket — what the receive pump does with a full `rd` buffer.
fn drain_frames(stream: &[u8]) -> usize {
    let mut off = 0;
    let mut total = 0;
    while let Some((h, len)) = wire::split_frame(&stream[off..]).expect("well-formed stream") {
        let payload = &stream[off + FRAME_HEADER_LEN..off + len];
        debug_assert_eq!(h.channel, CH_DATA);
        let mut r = WireReader::new(payload);
        total += wire::read_vec::<WEdge>(&mut r)
            .expect("bucket decodes")
            .len();
        off += len;
        if off == stream.len() {
            break;
        }
    }
    total
}

fn frame_header(len: usize, seq: u64) -> FrameHeader {
    FrameHeader {
        channel: CH_DATA,
        a: seq,
        b: 0,
        len: len as u32,
        sum: 0,
    }
}

/// The bucket as one coalesced frame, and as one frame per element.
fn framed(bucket: &[WEdge]) -> (Vec<u8>, Vec<u8>) {
    let mut coalesced = Vec::new();
    let mut payload = Vec::new();
    wire::write_slice(&mut payload, bucket);
    frame_header(payload.len(), 0).write(&mut coalesced);
    coalesced.extend_from_slice(&payload);

    let mut per_msg = Vec::new();
    for (i, e) in bucket.iter().enumerate() {
        let mut p = Vec::new();
        wire::write_slice(&mut p, std::slice::from_ref(e));
        frame_header(p.len(), i as u64).write(&mut per_msg);
        per_msg.extend_from_slice(&p);
    }
    (coalesced, per_msg)
}

fn main() {
    println!("bench_transport: the byte lane's codec, ms, median of {SAMPLES}");
    let mut codec = Table::new(&["n", "wedge_ms", "cedge_ms", "cedge/wedge"]);
    let mut framing = Table::new(&[
        "n",
        "coalesced_ms",
        "per_message_ms",
        "per_message/coalesced",
    ]);
    let mut buffers = Table::new(&["n", "pooled_ms", "fresh_ms", "fresh/pooled"]);
    for pow in [10u32, 14, 17, 20] {
        let n = 1usize << pow;
        let size = format!("2^{pow}");
        let (we, ce) = (wedges(n), cedges(n));
        let mut scratch = Vec::new();
        let wedge = median_ms(|| (), |()| roundtrip(&we, &mut scratch));
        let cedge = median_ms(|| (), |()| roundtrip(&ce, &mut scratch));
        codec.row(vec![
            size.clone(),
            ms_cell(wedge),
            ms_cell(cedge),
            ratio_cell(cedge / wedge),
        ]);

        let (coalesced, per_msg) = framed(&we);
        let one = median_ms(|| (), |()| drain_frames(&coalesced));
        let each = median_ms(|| (), |()| drain_frames(&per_msg));
        framing.row(vec![
            size.clone(),
            ms_cell(one),
            ms_cell(each),
            ratio_cell(each / one),
        ]);

        // The steady-state round keeps its capacity and encodes in place
        // (wire::encode_into semantics: clear + write).
        let mut pooled = Vec::new();
        let kept = median_ms(
            || (),
            |()| {
                pooled.clear();
                wire::write_slice(&mut pooled, &we);
                pooled.len()
            },
        );
        let fresh = median_ms(
            || (),
            |()| {
                let mut buf = Vec::new();
                wire::write_slice(&mut buf, &we);
                buf
            },
        );
        buffers.row(vec![
            size,
            ms_cell(kept),
            ms_cell(fresh),
            ratio_cell(fresh / kept),
        ]);
    }
    for table in [codec, framing, buffers] {
        table.print();
        println!();
    }
}
