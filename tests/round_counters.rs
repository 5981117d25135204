//! The modeled counters of Algorithm 1's contraction rounds, pinned. On
//! GNM and RMAT the Sec. IV-A gate skips local contraction at every
//! `p ≥ 2`, so a solve is the gate's count, then rounds that each run
//! `EXCHANGE LABELS` + `RELABEL` and `REDISTRIBUTE` on the whole slice,
//! then the rooted base case. The launcher pins in CI hold `mst` on an
//! RGG (whose gate passes) and `filter`; these hold the rounds
//! themselves: machine-wide `messages` and `bytes`, the bits of the
//! slowest PE's modeled seconds, and the local work charged per phase
//! (Fig. 6's taxonomy, summed over the PEs), on both transports.

use kamsta::comm::{Machine, MachineConfig, TransportKind};
use kamsta::core::dist::boruvka_mst;
use kamsta::{GraphConfig, InputGraph, MstConfig, Phase};

/// What one solve charged, machine-wide.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    messages: u64,
    bytes: u64,
    modeled_bits: u64,
    /// Per phase, in `Phase::ALL` order.
    local_ops: [u64; 8],
}

fn solve(config: GraphConfig, p: usize, transport: TransportKind) -> Counters {
    let machine = MachineConfig::new(p)
        .with_threads(1)
        .with_transport(transport);
    let out = Machine::run(machine, move |comm| {
        let input = InputGraph::generate(comm, config, 42);
        let before = comm.stats();
        let result = boruvka_mst(comm, &input, &MstConfig::default());
        (comm.stats().since(&before), result.phases.local_ops)
    });
    let mut counters = Counters {
        messages: 0,
        bytes: 0,
        modeled_bits: 0,
        local_ops: [0; 8],
    };
    for (stats, ops) in out.results {
        counters.messages += stats.messages;
        counters.bytes += stats.bytes;
        counters.modeled_bits = counters.modeled_bits.max(stats.modeled_time.to_bits());
        for (sum, op) in counters.local_ops.iter_mut().zip(ops) {
            *sum += op;
        }
    }
    counters
}

#[test]
fn boruvka_round_counters_are_pinned() {
    let gnm = GraphConfig::Gnm {
        n: 1 << 12,
        m: 1 << 15,
    };
    let rmat = GraphConfig::Rmat {
        scale: 12,
        m: 1 << 15,
    };
    // Recorded once the gate, the label walk and `REDISTRIBUTE MST`
    // charged the work they run.
    let pins = [
        (
            gnm,
            2,
            Counters {
                messages: 204,
                bytes: 3574536,
                modeled_bits: 4565570106405759424,
                local_ops: [17461, 59518, 44629, 129162, 515423, 48906, 0, 0],
            },
        ),
        (
            gnm,
            3,
            Counters {
                messages: 501,
                bytes: 3798688,
                modeled_bits: 4565915541979958110,
                local_ops: [17583, 59518, 49806, 138460, 562425, 48906, 0, 0],
            },
        ),
        (
            rmat,
            2,
            Counters {
                messages: 106,
                bytes: 1134888,
                modeled_bits: 4559749765273686686,
                local_ops: [8232, 32650, 14465, 69466, 168011, 32724, 0, 0],
            },
        ),
        (
            rmat,
            3,
            Counters {
                messages: 261,
                bytes: 1260576,
                modeled_bits: 4560911830829330868,
                local_ops: [8340, 32650, 15932, 72432, 195342, 32724, 0, 0],
            },
        ),
    ];
    for (config, p, pinned) in pins {
        for transport in [TransportKind::Cells, TransportKind::Sockets] {
            let got = solve(config, p, transport);
            let rounds = got.local_ops[Phase::ExchangeLabelsRelabel as usize];
            assert!(rounds > 0, "{config:?} at p = {p} ran contraction rounds");
            assert_eq!(got, pinned, "{config:?} at p = {p} on {transport:?}");
        }
    }
}
