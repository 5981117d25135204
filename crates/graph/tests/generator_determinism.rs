//! Generator determinism across PE counts **and** transport backends.
//!
//! The generators are communication-free (pure hashing on the seed and
//! the graph structure), so the distributed edge list must be
//! bit-identical no matter how many PEs generate it or which transport
//! the machine runs on — the transports may only move bytes, never
//! perturb float evaluation order. Compared via an order-sensitive
//! digest of the slices concatenated in rank order, which catches any
//! drift in edge content, weights, or ordering; the pinned digests hold
//! every family's edge list to fixed values.

use kamsta_comm::{Machine, MachineConfig, TransportKind};
use kamsta_graph::{GraphConfig, WEdge};

/// FNV-style order-sensitive digest of an edge list.
fn digest(edges: &[WEdge]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in edges {
        let mut x = e.u ^ e.v.rotate_left(21) ^ (e.w as u64).rotate_left(42);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= x ^ (x >> 31);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ edges.len() as u64
}

/// The slices concatenated in rank order, checked to be sorted as
/// emitted: strictly, except for RMAT, which may repeat an edge.
fn generate_t(
    p: usize,
    threads: usize,
    transport: TransportKind,
    config: GraphConfig,
    seed: u64,
) -> Vec<WEdge> {
    let all: Vec<WEdge> = Machine::run(
        MachineConfig::new(p)
            .with_threads(threads)
            .with_transport(transport),
        move |comm| config.generate(comm, seed),
    )
    .results
    .into_iter()
    .flatten()
    .collect();
    let sorted = match config {
        GraphConfig::Rmat { .. } => all.windows(2).all(|w| w[0] <= w[1]),
        _ => all.windows(2).all(|w| w[0] < w[1]),
    };
    assert!(
        sorted,
        "{config:?} seed={seed} p={p}: not sorted as emitted"
    );
    all
}

fn generate(p: usize, transport: TransportKind, config: GraphConfig, seed: u64) -> Vec<WEdge> {
    generate_t(p, 1, transport, config, seed)
}

#[test]
fn geometric_generators_deterministic_across_pes_and_transports() {
    let cases: [(GraphConfig, u64); 3] = [
        (
            GraphConfig::Rhg {
                n: 400,
                m: 3000,
                gamma: 3.0,
            },
            5,
        ),
        (GraphConfig::Rgg2D { n: 400, m: 3000 }, 7),
        (GraphConfig::Rgg3D { n: 300, m: 2200 }, 9),
    ];
    for (config, seed) in cases {
        let reference = generate(1, TransportKind::Cells, config, seed);
        assert!(!reference.is_empty(), "{config:?} generated nothing");
        let want = digest(&reference);
        for transport in [TransportKind::Cells, TransportKind::Sockets] {
            for p in [1usize, 2, 4, 16] {
                let got = generate(p, transport, config, seed);
                assert_eq!(
                    digest(&got),
                    want,
                    "{config:?} seed={seed}: edge-set digest differs at \
                     p={p} transport={transport:?}"
                );
                assert_eq!(
                    got, reference,
                    "{config:?} seed={seed}: edge list differs at \
                     p={p} transport={transport:?}"
                );
            }
        }
        // The hybrid thread axis: intra-PE width must never perturb the
        // generated edge list either — same digest at t ∈ {2, 8}.
        for t in [2usize, 8] {
            for p in [1usize, 4] {
                let got = generate_t(p, t, TransportKind::Cells, config, seed);
                assert_eq!(
                    digest(&got),
                    want,
                    "{config:?} seed={seed}: edge-set digest differs at p={p} t={t}"
                );
            }
        }
    }
}

/// Check `config` at `seed` against its pinned edge count and digest at
/// every PE count in `pes`.
fn assert_pinned(config: GraphConfig, seed: u64, pes: &[usize], len: usize, want: u64) {
    for &p in pes {
        let got = generate(p, TransportKind::Cells, config, seed);
        assert_eq!(
            (got.len(), digest(&got)),
            (len, want),
            "{config:?} seed={seed} p={p}: edge list differs from the pinned one"
        );
    }
}

/// Every family's edge list, pinned at two small sizes: a change to a
/// generator that moves one edge, weight or position fails here.
#[test]
fn generated_edge_lists_are_pinned() {
    let rhg = |n, m| GraphConfig::Rhg { n, m, gamma: 3.0 };
    let pinned: [(GraphConfig, usize, u64); 14] = [
        (
            GraphConfig::Grid2D { rows: 9, cols: 7 },
            220,
            0x27abaf362d2c8592,
        ),
        (
            GraphConfig::Grid2D { rows: 40, cols: 33 },
            5134,
            0x83bc7361bf9af445,
        ),
        (
            GraphConfig::RoadLike { rows: 10, cols: 9 },
            198,
            0xad2a9888559f22a9,
        ),
        (
            GraphConfig::RoadLike { rows: 40, cols: 33 },
            3164,
            0x04b7d519724617ef,
        ),
        (
            GraphConfig::Rgg2D { n: 250, m: 1800 },
            2036,
            0x081688e1accdec60,
        ),
        (
            GraphConfig::Rgg2D { n: 2000, m: 16000 },
            19226,
            0xc05ea758d11cc3d6,
        ),
        (
            GraphConfig::Rgg3D { n: 250, m: 1800 },
            1250,
            0xbc7f25f063d5daa5,
        ),
        (
            GraphConfig::Rgg3D { n: 2000, m: 16000 },
            12304,
            0x964b4e360fe57e13,
        ),
        (
            GraphConfig::Gnm { n: 180, m: 1500 },
            1508,
            0x1f13bf2913a25621,
        ),
        (
            GraphConfig::Gnm { n: 2000, m: 16000 },
            15852,
            0xb53439864a2f2e2e,
        ),
        (rhg(220, 1700), 1228, 0xb352f64bad7b2b0e),
        (rhg(2000, 16000), 16836, 0x6e55350698ed56cb),
        (
            GraphConfig::Rmat { scale: 7, m: 900 },
            858,
            0xcd3b8eec277fe762,
        ),
        (
            GraphConfig::Rmat {
                scale: 11,
                m: 16000,
            },
            15908,
            0x0cf05abaa2c0f61b,
        ),
    ];
    for (config, len, want) in pinned {
        assert_pinned(config, 7, &[1, 3, 16], len, want);
    }
}

/// The benchmark's RGG input (`rgg-local`), pinned. Slow in debug builds:
/// run with `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn benchmark_rgg_input_is_pinned() {
    let config = GraphConfig::Rgg2D {
        n: 1 << 18,
        m: 1 << 22,
    };
    assert_pinned(config, 42, &[2], 3716864, 0x16d8efb645c1f07b);
}

/// The benchmark's GNM input (`gnm-dense`, `gnm-filter`, `gnm-sockets`),
/// pinned. Slow in debug builds: run with `cargo test --release --
/// --ignored`.
#[test]
#[ignore]
fn benchmark_gnm_input_is_pinned() {
    let config = GraphConfig::Gnm {
        n: 1 << 16,
        m: 1 << 20,
    };
    assert_pinned(config, 42, &[2], 1049816, 0x68f8fd06d2cb138d);
}
