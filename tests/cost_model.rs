//! Modeled-cost assertions: the qualitative relations the paper's
//! engineering decisions rest on must hold in the α-β-γ model.

use kamsta::{Algorithm, AlltoallKind, GraphConfig, MstConfig, Runner};

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
