//! **Fig. 2**: effect of the two-level all-to-all on component
//! contraction. The paper runs distributed Borůvka on GNM(2^17, 2^21 per
//! core) and plots the accumulated running time of the contraction phase
//! for one-level (direct `MPI_Alltoallv`) vs. two-level (grid) delivery:
//! one-level grows with the core count, two-level stays flat.

use kamsta::{Algorithm, AlltoallKind, Phase};
use kamsta_bench::{bench_mst_config, core_series, weak_scaling_args, Table, Variant, WeakScale};

fn main() {
    let (max_cores, ws) = weak_scaling_args("fig2_two_level_alltoall", WeakScale::DEFAULT);
    println!(
        "# Fig. 2 — contraction-phase time, GNM(2^{}, 2^{}) per core (paper: 2^17, 2^21)",
        ws.v_per_core, ws.m_per_core
    );
    println!("# modeled seconds of the contractComponents phase; lower is better\n");

    let variant = Variant {
        algo: Algorithm::Boruvka,
        threads: 1,
    };
    let phase_idx = Phase::ALL
        .iter()
        .position(|p| *p == Phase::ContractComponents)
        .unwrap();

    let mut table = Table::new(&[
        "cores",
        "one-level (s)",
        "two-level (s)",
        "speedup",
        "one-level msgs",
        "two-level msgs",
    ]);
    for cores in core_series(max_cores) {
        let config = ws.config("GNM", cores);
        let run = |kind: AlltoallKind| {
            let runner = variant
                .runner(cores, bench_mst_config())
                .unwrap()
                .with_alltoall(kind);
            runner.run_generated(config, variant.algo, 42)
        };
        let direct = run(AlltoallKind::Direct);
        let grid = run(AlltoallKind::Grid);
        let t_direct = direct.phases.as_ref().unwrap().modeled[phase_idx];
        let t_grid = grid.phases.as_ref().unwrap().modeled[phase_idx];
        assert_eq!(direct.msf_weight, grid.msf_weight, "strategies must agree");
        table.row(vec![
            cores.to_string(),
            format!("{t_direct:.5}"),
            format!("{t_grid:.5}"),
            format!("{:.2}x", t_direct / t_grid.max(1e-12)),
            direct.messages.to_string(),
            grid.messages.to_string(),
        ]);
    }
    table.print();
    println!("\n# paper shape: one-level rises sharply with cores; two-level stays near-flat");
}
