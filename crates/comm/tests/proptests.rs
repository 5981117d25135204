//! Property tests for the collective operations and the wire decoders:
//! arbitrary payloads and PE counts must round-trip exactly, and
//! arbitrary hostile bytes must come back as typed errors — never a
//! panic, never an out-of-bounds read, never an unbounded allocation.

use kamsta_comm::wire::{
    self, split_frame, FrameHeader, CH_DATA, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use kamsta_comm::{AlltoallKind, FlatBuckets, Machine, MachineConfig, WireError};
use proptest::prelude::*;

/// Encode one well-formed data frame (header + payload).
fn good_frame(seq: u64, tag: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    FrameHeader {
        channel: CH_DATA,
        a: seq,
        b: tag,
        len: payload.len() as u32,
        sum: 0,
    }
    .write(&mut out);
    out.extend_from_slice(payload);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allgatherv_concatenates(
        p in 1usize..8,
        chunks in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..20), 1..8),
    ) {
        let chunks_run = chunks.clone();
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let mine = chunks_run.get(comm.rank()).cloned().unwrap_or_default();
            comm.allgatherv(mine)
        });
        let expected: Vec<u32> = chunks.iter().take(p).flatten().copied().collect();
        for r in out.results {
            prop_assert_eq!(&r, &expected);
        }
    }

    #[test]
    fn exscan_prefixes(
        p in 1usize..9,
        vals in prop::collection::vec(any::<u32>(), 1..9),
    ) {
        let vals_run = vals.clone();
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let v = vals_run.get(comm.rank()).copied().unwrap_or(0) as u64;
            comm.exscan_sum(v)
        });
        for (rank, got) in out.results.into_iter().enumerate() {
            let expected: u64 = (0..rank)
                .map(|r| vals.get(r).copied().unwrap_or(0) as u64)
                .sum();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn alltoall_strategies_agree(
        p in 2usize..10,
        salt in any::<u64>(),
    ) {
        let run = |kind: AlltoallKind| {
            Machine::run(MachineConfig::new(p).with_alltoall(kind), move |comm| {
                let me = comm.rank() as u64;
                let bufs = FlatBuckets::from_nested(
                    (0..p)
                        .map(|d| {
                            let n = ((salt ^ (me * 31 + d as u64)) % 5) as usize;
                            (0..n as u64).map(|k| salt ^ (me * 1000 + d as u64 * 10 + k)).collect()
                        })
                        .collect(),
                );
                let recv = match kind {
                    AlltoallKind::Direct => comm.alltoallv_direct(bufs),
                    AlltoallKind::Grid => comm.alltoallv_grid(bufs),
                    AlltoallKind::Auto => comm.sparse_alltoallv(bufs),
                };
                recv.to_nested()
            })
            .results
        };
        let direct = run(AlltoallKind::Direct);
        prop_assert_eq!(&run(AlltoallKind::Grid), &direct);
        prop_assert_eq!(&run(AlltoallKind::Auto), &direct);
    }

    #[test]
    fn flat_buckets_roundtrip_nested_construction(
        nested in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..12), 1..10),
    ) {
        // The flat representation must agree with the old Vec<Vec<T>>
        // construction in every observable way.
        let flat = FlatBuckets::from_nested(nested.clone());
        prop_assert_eq!(flat.buckets(), nested.len());
        prop_assert_eq!(flat.total_len(), nested.iter().map(Vec::len).sum::<usize>());
        for (j, bucket) in nested.iter().enumerate() {
            prop_assert_eq!(flat.bucket(j), bucket.as_slice());
            prop_assert_eq!(flat.count(j), bucket.len());
        }
        prop_assert_eq!(&flat.to_nested(), &nested);
        let flat_payload: Vec<u64> = nested.iter().flatten().copied().collect();
        prop_assert_eq!(flat.payload(), flat_payload.as_slice());
        prop_assert_eq!(flat.into_payload(), flat_payload);
    }

    #[test]
    fn flat_buckets_scatter_matches_nested_pushes(
        buckets in 1usize..9,
        pairs in prop::collection::vec((0usize..9, any::<u32>()), 0..60),
    ) {
        let pairs: Vec<(usize, u32)> =
            pairs.into_iter().map(|(d, x)| (d % buckets, x)).collect();
        // Reference: the old push-into-nested-buckets construction.
        let mut nested: Vec<Vec<u32>> = vec![Vec::new(); buckets];
        for &(d, x) in &pairs {
            nested[d].push(x);
        }
        // Count-then-scatter must produce the identical (stable) layout.
        let flat = FlatBuckets::from_pairs(buckets, pairs.clone());
        prop_assert_eq!(&flat.to_nested(), &nested);
        let by_fn = FlatBuckets::from_dest_fn(
            buckets,
            pairs.iter().map(|&(_, x)| x).collect::<Vec<u32>>(),
            |_| 0,
        );
        prop_assert_eq!(by_fn.count(0), pairs.len());
    }

    #[test]
    fn split_frame_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Whatever the network delivers, the splitter answers with
        // Ok(Some), Ok(None), or a typed WireError — by returning here
        // at all the property holds (a panic fails the test).
        let _ = split_frame(&bytes);
    }

    #[test]
    fn split_frame_survives_truncation_and_bit_flips(
        seq in any::<u64>(),
        tag in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..96),
        cut_pick in any::<usize>(),
        flip_pick in any::<usize>(),
    ) {
        let frame = good_frame(seq, tag, &payload);
        // The pristine frame parses back exactly.
        let (h, total) = split_frame(&frame).unwrap().expect("complete frame");
        prop_assert_eq!(total, frame.len());
        prop_assert_eq!((h.a, h.b, h.len as usize), (seq, tag, payload.len()));

        // Every truncation is "keep reading", not an error and not a panic:
        // the splitter must never trust a length before the bytes arrive.
        let cut = cut_pick % frame.len();
        prop_assert_eq!(split_frame(&frame[..cut]).unwrap(), None);

        // A single flipped bit anywhere: still a total function. Flips in
        // the length field may announce an oversized frame — that must be
        // the typed Malformed rejection, before any allocation.
        let mut evil = frame.clone();
        let bit = flip_pick % (evil.len() * 8);
        evil[bit / 8] ^= 1 << (bit % 8);
        match split_frame(&evil) {
            Ok(_) => {}
            Err(WireError::Malformed(_)) | Err(WireError::Truncated) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error class: {e:?}"))),
        }
    }

    #[test]
    fn coalesced_frames_reassemble_under_any_fragmentation(
        buckets in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..40), 1..6),
        cuts in prop::collection::vec(any::<usize>(), 0..12),
    ) {
        // PR 10 frame layout: one coalesced CH_DATA frame per
        // (peer, round), payload = wire::write_slice of the whole
        // bucket. The stream below is what a peer's TCP connection
        // delivers for several rounds back to back; the kernel may
        // hand it to us in arbitrary fragments. Reassembling through
        // the same split_frame loop the receive pump runs must
        // recover every bucket exactly, regardless of where the
        // fragment boundaries fall.
        let mut stream = Vec::new();
        for (seq, bucket) in buckets.iter().enumerate() {
            let mut payload = Vec::new();
            wire::write_slice(&mut payload, bucket);
            stream.extend_from_slice(&good_frame(seq as u64, 3, &payload));
        }

        // Arbitrary cut points — including cuts inside headers, inside
        // payloads, and duplicate/zero-width cuts.
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        points.push(0);
        points.push(stream.len());
        points.sort_unstable();
        points.dedup();

        // Feed each fragment into a growing rd buffer, draining
        // complete frames as they appear (Link::parse_frames' shape).
        let mut rd: Vec<u8> = Vec::new();
        let mut got: Vec<(u64, Vec<u64>)> = Vec::new();
        for w in points.windows(2) {
            rd.extend_from_slice(&stream[w[0]..w[1]]);
            let mut off = 0;
            while let Some((h, total)) = split_frame(&rd[off..]).unwrap() {
                prop_assert_eq!(h.channel, CH_DATA);
                prop_assert_eq!(h.b, 3);
                let payload = &rd[off + FRAME_HEADER_LEN..off + total];
                let mut r = wire::WireReader::new(payload);
                let vals = wire::read_vec::<u64>(&mut r).unwrap();
                r.finish().unwrap();
                got.push((h.a, vals));
                off += total;
            }
            rd.drain(..off);
        }
        prop_assert!(rd.is_empty(), "stream fully consumed");
        let expected: Vec<(u64, Vec<u64>)> = buckets
            .iter()
            .enumerate()
            .map(|(s, b)| (s as u64, b.clone()))
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn coalesced_frame_corruption_is_a_typed_error(
        bucket in prop::collection::vec(any::<u64>(), 1..40),
        flip_pick in any::<usize>(),
    ) {
        // A bit flip anywhere in a coalesced frame must surface as a
        // typed WireError from exactly one of the two decode layers
        // (split_frame on the header, read_vec/finish on the payload)
        // — or leave a value-level change the checksum layer catches.
        // Never a panic, never an out-of-bounds read.
        let mut payload = Vec::new();
        wire::write_slice(&mut payload, &bucket);
        let mut frame = good_frame(0, 0, &payload);
        let bit = flip_pick % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);

        match split_frame(&frame) {
            Err(WireError::Malformed(_)) | Err(WireError::Truncated) => {}
            Ok(None) => {} // length grew: looks like a partial frame
            Ok(Some((_, total))) => {
                let end = total.min(frame.len());
                let mut r = wire::WireReader::new(&frame[FRAME_HEADER_LEN..end]);
                let _ = wire::read_vec::<u64>(&mut r).and_then(|_| r.finish());
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error class: {e:?}"))),
        }
    }

    #[test]
    fn split_frame_rejects_length_lies_before_allocating(
        lie in MAX_FRAME_PAYLOAD + 1..u32::MAX,
    ) {
        // A header announcing an absurd payload length, with no payload
        // behind it: rejected from the header alone.
        let mut out = Vec::new();
        FrameHeader { channel: CH_DATA, a: 0, b: 0, len: lie, sum: 0 }.write(&mut out);
        prop_assert!(matches!(
            split_frame(&out),
            Err(WireError::Malformed("oversized frame"))
        ));
    }

    #[test]
    fn wire_decoders_are_total_on_hostile_payloads(
        vals in prop::collection::vec(any::<u64>(), 0..24),
        text_bytes in prop::collection::vec(any::<u8>(), 0..24),
        cut_pick in any::<usize>(),
        flip_pick in any::<usize>(),
    ) {
        // Round-trip sanity, then the same bytes truncated and bit-flipped:
        // decode must return Ok or a typed WireError, never panic and
        // never read out of bounds.
        let value = (vals, String::from_utf8_lossy(&text_bytes).into_owned());
        let bytes = wire::encode(&value);
        prop_assert_eq!(wire::decode::<(Vec<u64>, String)>(&bytes).unwrap(), value);

        let cut = cut_pick % bytes.len().max(1);
        let _ = wire::decode::<(Vec<u64>, String)>(&bytes[..cut.min(bytes.len())]);

        if !bytes.is_empty() {
            let mut evil = bytes.clone();
            let bit = flip_pick % (evil.len() * 8);
            evil[bit / 8] ^= 1 << (bit % 8);
            let _ = wire::decode::<(Vec<u64>, String)>(&evil);
            let _ = wire::decode::<Vec<(u32, u32)>>(&evil);
            let _ = wire::decode::<String>(&evil);
        }
    }
}
