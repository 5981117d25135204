//! Criterion micro-bench: the byte-transport data path in isolation.
//!
//! Three questions, matching the PR 10 redesign of the byte lane
//! (DESIGN.md §12):
//!
//! 1. **Encode/decode throughput** of `WEdge` and `CEdge` buckets
//!    through `wire::write_slice` / `wire::read_vec` — the exact code
//!    the flat exchange runs per (peer, round).
//! 2. **Coalesced vs per-message framing**: one `CH_DATA` frame
//!    carrying a whole bucket against one frame per element (the
//!    pre-PR-10 shape), both reassembled through `wire::split_frame`.
//! 3. **Pooled vs fresh buffers**: serializing into a buffer whose
//!    capacity survives from the previous round against allocating a
//!    new `Vec` each round.
//!
//! Sizes span 2^10–2^20 elements — the per-peer bucket range of the
//! weak-scaled perf-trajectory instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

fn bench_encode_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_roundtrip");
    group.sample_size(10);
    for pow in [10usize, 14, 17, 20] {
        let n = 1usize << pow;
        let we = wedges(n);
        let ce = cedges(n);
        let mut scratch = Vec::new();
        group.bench_with_input(BenchmarkId::new("wedge", n), &n, |b, _| {
            b.iter(|| roundtrip(&we, &mut scratch))
        });
        group.bench_with_input(BenchmarkId::new("cedge", n), &n, |b, _| {
            b.iter(|| roundtrip(&ce, &mut scratch))
        });
    }
    group.finish();
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

fn bench_framing(c: &mut Criterion) {
    let mut group = c.benchmark_group("framing");
    group.sample_size(10);
    for pow in [10usize, 14, 17] {
        let n = 1usize << pow;
        let bucket = wedges(n);

        // One coalesced frame for the whole bucket (the PR 10 shape).
        let mut coalesced = Vec::new();
        let mut payload = Vec::new();
        wire::write_slice(&mut payload, &bucket);
        frame_header(payload.len(), 0).write(&mut coalesced);
        coalesced.extend_from_slice(&payload);

        // One frame per element (the pre-PR-10 shape, reconstructed).
        let mut per_msg = Vec::new();
        for (i, e) in bucket.iter().enumerate() {
            let mut p = Vec::new();
            wire::write_slice(&mut p, std::slice::from_ref(e));
            frame_header(p.len(), i as u64).write(&mut per_msg);
            per_msg.extend_from_slice(&p);
        }

        group.bench_with_input(BenchmarkId::new("coalesced", n), &n, |b, _| {
            b.iter(|| drain_frames(&coalesced))
        });
        group.bench_with_input(BenchmarkId::new("per_message", n), &n, |b, _| {
            b.iter(|| drain_frames(&per_msg))
        });
    }
    group.finish();
}

fn bench_buffer_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("send_buffers");
    group.sample_size(10);
    for pow in [10usize, 14, 17, 20] {
        let n = 1usize << pow;
        let bucket = wedges(n);
        let mut pooled = Vec::new();
        group.bench_with_input(BenchmarkId::new("pooled", n), &n, |b, _| {
            b.iter(|| {
                // The steady-state round: capacity survives, encode in
                // place (wire::encode_into semantics — clear + write).
                pooled.clear();
                wire::write_slice(&mut pooled, &bucket);
                pooled.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("fresh", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = Vec::new();
                wire::write_slice(&mut buf, &bucket);
                buf.len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode_decode,
    bench_framing,
    bench_buffer_pool
);
criterion_main!(benches);
