//! Modeled-cost assertions: the qualitative relations the paper's
//! engineering decisions rest on must hold in the α-β-γ model.

use kamsta::comm::{ceil_log2, Machine, MachineConfig};
use kamsta::core::dist::excess_locality;
use kamsta::{Algorithm, AlltoallKind, GraphConfig, InputGraph, MstConfig, Phase, Runner};

fn cfg() -> MstConfig {
    MstConfig {
        base_case_constant: 256,
        ..MstConfig::default()
    }
}

/// Sec. IV-A / Fig. 4: preprocessing reduces communication volume on
/// high-locality graphs.
#[test]
fn preprocessing_cuts_bytes_on_local_graphs() {
    let config = GraphConfig::Rgg2D {
        n: 1 << 13,
        m: 1 << 17,
    };
    let runner = Runner::new(8, 1).with_mst_config(cfg());
    let with_prep = runner.run_generated(config, Algorithm::Boruvka, 42);
    let without = runner
        .clone()
        .with_mst_config(cfg().without_preprocessing())
        .run_generated(config, Algorithm::Boruvka, 42);
    assert_eq!(with_prep.msf_weight, without.msf_weight);
    assert!(
        with_prep.bytes * 2 < without.bytes,
        "preprocessing should cut communicated bytes at least 2x: {} vs {}",
        with_prep.bytes,
        without.bytes
    );
    assert!(with_prep.modeled_time < without.modeled_time);
}

/// Sec. IV-A: the gate runs local contraction when the excess locality
/// reaches 0.25, and the families decide with a margin of at least 0.15
/// on both sides at every p ≥ 2. A random graph reads only what the block
/// partition gives it (|e| ≤ 0.1; measured ≤ 0.045, RMAT at p = 2), a
/// geometric one far more (e ≥ 0.45; measured ≥ 0.56, 3D-RGG at p = 16);
/// on one PE every graph reads 1. EXPERIMENTS.md "The gate reads locality
/// beyond the partition's" has the sweep these bounds come from.
#[test]
fn locality_gate_decides_with_margin() {
    let (n, m) = (1 << 12, 1 << 16);
    let families = [
        GraphConfig::Gnm { n, m },
        GraphConfig::Rmat { scale: 12, m },
        GraphConfig::Rgg2D { n, m },
        GraphConfig::Rgg3D { n, m },
        GraphConfig::Grid2D { rows: 64, cols: 64 },
        GraphConfig::RoadLike { rows: 64, cols: 64 },
    ];
    for config in families {
        for p in [1, 2, 3, 4, 8, 16] {
            let read = Machine::run(MachineConfig::new(p), move |comm| {
                excess_locality(comm, &InputGraph::generate(comm, config, 42).graph)
            })
            .results;
            let e = read[0];
            assert!(read.iter().all(|&x| x == e), "the gate is global");
            let family = config.family();
            if p == 1 {
                assert_eq!(e, 1.0, "{family}: one PE holds every edge");
            } else if config.is_local_family() {
                assert!(e >= 0.45, "{family} at p = {p}: e = {e}");
            } else {
                assert!(e.abs() <= 0.1, "{family} at p = {p}: e = {e}");
            }
        }
    }
}

/// Sec. IV-A: where the gate skips the pass (GNM and RMAT at p ≥ 2), the
/// solve is the one without preprocessing plus the gate alone — one
/// allreduce of a `u64` after the count — so neither the pass nor its
/// redistribution runs. Messages and bytes differ by exactly that
/// allreduce. The modeled time lies between the one without
/// preprocessing and that plus the gate's phase: the gate's barrier
/// evens out the clocks that set-up leaves unequal, which the first
/// barrier of the solve would otherwise do, so the shift is not exact.
#[test]
fn skipping_the_pass_costs_only_the_gate() {
    let families = [
        GraphConfig::Gnm {
            n: 1 << 12,
            m: 1 << 15,
        },
        GraphConfig::Rmat {
            scale: 12,
            m: 1 << 15,
        },
    ];
    let at = Phase::ALL
        .iter()
        .position(|&ph| ph == Phase::LocalPreprocessing);
    let at = at.expect("a phase of Fig. 6");
    for config in families {
        for p in [2, 3, 4] {
            let runner = Runner::new(p, 1);
            let gated = runner.run_generated(config, Algorithm::Boruvka, 42);
            let plain = runner
                .clone()
                .with_mst_config(MstConfig::default().without_preprocessing())
                .run_generated(config, Algorithm::Boruvka, 42);
            let what = format!("{} at p = {p}", config.family());
            assert_eq!(gated.msf_weight, plain.msf_weight, "{what}");
            let pes = p as u64;
            let rounds = u64::from(ceil_log2(p).max(1));
            assert_eq!(gated.messages, plain.messages + pes * rounds, "{what}");
            assert_eq!(gated.bytes, plain.bytes + pes * pes * 8, "{what}");
            let gate = gated.phases.as_ref().expect("Borůvka's phases").modeled[at];
            let slack = 1e-12 * plain.modeled_time;
            assert!(
                plain.modeled_time - slack <= gated.modeled_time
                    && gated.modeled_time <= plain.modeled_time + gate + slack,
                "{what}: {} against {} + gate {gate}",
                gated.modeled_time,
                plain.modeled_time
            );
        }
    }
}

/// Sec. VI-A / Fig. 2: the grid all-to-all needs far fewer message
/// startups than the direct one at scale.
#[test]
fn grid_alltoall_cuts_messages() {
    let config = GraphConfig::Gnm {
        n: 1 << 12,
        m: 1 << 15,
    };
    let direct = Runner::new(36, 1)
        .with_mst_config(cfg())
        .with_alltoall(AlltoallKind::Direct)
        .run_generated(config, Algorithm::Boruvka, 42);
    let grid = Runner::new(36, 1)
        .with_mst_config(cfg())
        .with_alltoall(AlltoallKind::Grid)
        .run_generated(config, Algorithm::Boruvka, 42);
    assert_eq!(direct.msf_weight, grid.msf_weight);
    // The full run includes sorting traffic that the strategy does not
    // touch, so the whole-run reduction is smaller than the pure
    // all-to-all factor of √p (Fig. 2 isolates the contraction phase).
    assert!(
        (grid.messages as f64) < 0.8 * direct.messages as f64,
        "grid should cut startups noticeably: {} vs {}",
        grid.messages,
        direct.messages
    );
    // ...at the price of extra volume.
    assert!(grid.bytes > direct.bytes);
}

/// Sec. V / Fig. 3 (GNM): filtering roughly halves the communication
/// volume on dense, locality-free graphs — most edges are eliminated
/// before they are ever sorted or relabeled — and wins outright in the
/// volume-dominated regime (the paper's per-core volumes are ~32x our
/// scaled-down defaults, which at the default β is equivalent to the
/// larger β used here; see EXPERIMENTS.md).
#[test]
fn filter_wins_on_dense_gnm() {
    // Avg degree 128. The one-direction base-case prefilter halves the
    // non-filtered gather, so the density must be high enough that
    // filtering's asymptotic advantage (heavy edges never travel at all)
    // dominates that constant factor.
    let config = GraphConfig::Gnm {
        n: 1 << 11,
        m: 1 << 18,
    };
    let volume_dominated = kamsta::CostModel {
        beta: 2e-8,
        ..kamsta::CostModel::default()
    };
    let runner = Runner::new(16, 1)
        .with_mst_config(cfg())
        .with_cost(volume_dominated);
    let plain = runner
        .clone()
        .with_mst_config(cfg().without_preprocessing())
        .run_generated(config, Algorithm::Boruvka, 42);
    let filter = runner.run_generated(config, Algorithm::FilterBoruvka, 42);
    assert_eq!(plain.msf_weight, filter.msf_weight);
    assert!(
        filter.bytes * 3 < plain.bytes * 2,
        "filter must cut communicated volume by ≥ a third: {} vs {}",
        filter.bytes,
        plain.bytes
    );
    assert!(
        filter.modeled_time < plain.modeled_time,
        "filter {} should beat plain {} on dense GNM when volume dominates",
        filter.modeled_time,
        plain.modeled_time
    );
}

/// Sec. VII-A: our algorithms beat the sparse-matrix baseline clearly on
/// high-locality inputs.
#[test]
fn boruvka_beats_sparse_matrix_on_grids() {
    let config = GraphConfig::Grid2D {
        rows: 128,
        cols: 128,
    };
    let runner = Runner::new(16, 1).with_mst_config(cfg());
    let ours = runner.run_generated(config, Algorithm::Boruvka, 42);
    let theirs = runner.run_generated(config, Algorithm::SparseMatrix, 42);
    assert_eq!(ours.msf_weight, theirs.msf_weight);
    assert!(
        ours.modeled_time * 2.0 < theirs.modeled_time,
        "expected >2x advantage: ours {} vs sparseMatrix {}",
        ours.modeled_time,
        theirs.modeled_time
    );
}

/// Hybrid threading reduces modeled time on local graphs at equal core
/// budget (the boruvka-8 vs boruvka-1 effect of Fig. 3).
#[test]
fn hybrid_helps_on_local_graphs() {
    let config = GraphConfig::Rgg2D {
        n: 1 << 13,
        m: 1 << 17,
    };
    let one =
        Runner::new(16, 1)
            .with_mst_config(cfg())
            .run_generated(config, Algorithm::Boruvka, 42);
    let eight =
        Runner::new(2, 8)
            .with_mst_config(cfg())
            .run_generated(config, Algorithm::Boruvka, 42);
    assert_eq!(one.msf_weight, eight.msf_weight);
    assert!(
        eight.modeled_time < one.modeled_time,
        "boruvka-8 {} should beat boruvka-1 {} on RGG",
        eight.modeled_time,
        one.modeled_time
    );
}
