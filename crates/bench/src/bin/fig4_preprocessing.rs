//! **Fig. 4**: running time of the algorithms *without* local
//! preprocessing on the high-locality families (paper: 2^17 vertices and
//! 2^23 edges per core), with the fastest preprocessing-enabled variant
//! (`local-boruvka-8`) as the baseline. Shows local contraction is worth
//! up to 5× on these inputs.

use kamsta::{Algorithm, MstConfig};
use kamsta_bench::{bench_mst_config, core_series, weak_scaling_args, Table, Variant, WeakScale};

const FAMILIES: [&str; 4] = ["2D-GRID", "2D-RGG", "3D-RGG", "RHG"];

fn main() {
    // Fig. 4 uses denser inputs than Fig. 3 (2^23 vs 2^21 per core): two
    // more in the default edge density.
    let scale = WeakScale {
        m_per_core: 16,
        ..WeakScale::DEFAULT
    };
    let (max_cores, ws) = weak_scaling_args("fig4_preprocessing", scale);
    println!(
        "# Fig. 4 — no-preprocessing ablation, 2^{} vertices / 2^{} edges per core (paper: 2^17 / 2^23)",
        ws.v_per_core, ws.m_per_core
    );
    println!(
        "# cells: modeled seconds (lower is better); local-boruvka-8 keeps preprocessing on\n"
    );

    let noprep = |algo: Algorithm, threads: usize| Variant { algo, threads };
    let variants = [
        noprep(Algorithm::Boruvka, 1),
        noprep(Algorithm::Boruvka, 8),
        noprep(Algorithm::FilterBoruvka, 1),
        noprep(Algorithm::FilterBoruvka, 8),
    ];
    let baseline = Variant {
        algo: Algorithm::Boruvka,
        threads: 8,
    };
    let nofilter_prep_cfg: MstConfig = bench_mst_config();
    let noprep_cfg = MstConfig {
        preprocessing: false,
        ..bench_mst_config()
    };

    for family in FAMILIES {
        println!("## {family}");
        let mut table = Table::new(&[
            "cores",
            "boruvka-1",
            "boruvka-8",
            "filterBoruvka-1",
            "filterBoruvka-8",
            "local-boruvka-8",
            "prep speedup",
        ]);
        for cores in core_series(max_cores) {
            let config = ws.config(family, cores);
            let mut cells = vec![cores.to_string()];
            let mut best_noprep = f64::INFINITY;
            for v in &variants {
                match v.run(cores, config, noprep_cfg, 42) {
                    Some(s) => {
                        best_noprep = best_noprep.min(s.modeled_time);
                        cells.push(format!("{:.4}", s.modeled_time));
                    }
                    None => cells.push("-".into()),
                }
            }
            let with_prep = baseline
                .run(cores, config, nofilter_prep_cfg, 42)
                .map(|s| s.modeled_time);
            match with_prep {
                Some(t) => {
                    cells.push(format!("{t:.4}"));
                    cells.push(format!("{:.2}x", best_noprep / t.max(1e-12)));
                }
                None => {
                    cells.push("-".into());
                    cells.push("-".into());
                }
            }
            table.row(cells);
        }
        table.print();
        println!();
    }
    println!("# paper shape: local-boruvka-8 is fastest on every local family (up to 5x)");
}
