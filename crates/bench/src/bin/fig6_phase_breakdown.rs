//! **Fig. 6**: normalized running-time distribution across algorithm
//! phases for `boruvka-{1,8}` and `filterBoruvka-{1,8}` (b1/b8/f1/f8) on
//! 3D-RGG, GNM and RMAT at three machine sizes.

use kamsta::{Algorithm, Phase};
use kamsta_bench::{bench_mst_config, weak_scaling_args, Table, Variant, WeakScale};

const FAMILIES: [&str; 3] = ["3D-RGG", "GNM", "RMAT"];

fn main() {
    let (max_cores, ws) = weak_scaling_args("fig6_phase_breakdown", WeakScale::DEFAULT);
    let core_points = [max_cores / 4, max_cores / 2, max_cores];
    println!(
        "# Fig. 6 — normalized phase breakdown, 2^{} vertices / 2^{} edges per core",
        ws.v_per_core, ws.m_per_core
    );
    println!("# cells: fraction of the bottleneck modeled time spent per phase\n");

    let variants = [
        (
            "b1",
            Variant {
                algo: Algorithm::Boruvka,
                threads: 1,
            },
        ),
        (
            "b8",
            Variant {
                algo: Algorithm::Boruvka,
                threads: 8,
            },
        ),
        (
            "f1",
            Variant {
                algo: Algorithm::FilterBoruvka,
                threads: 1,
            },
        ),
        (
            "f8",
            Variant {
                algo: Algorithm::FilterBoruvka,
                threads: 8,
            },
        ),
    ];

    for family in FAMILIES {
        for &cores in &core_points {
            if cores < 8 {
                continue;
            }
            println!("## {family} @ {cores} cores");
            let mut headers: Vec<String> = vec!["phase".into()];
            headers.extend(variants.iter().map(|(l, _)| l.to_string()));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = Table::new(&header_refs);
            let config = ws.config(family, cores);
            let mut norms: Vec<Option<[f64; 8]>> = Vec::new();
            for (_, v) in &variants {
                let norm = v
                    .run(cores, config, bench_mst_config(), 42)
                    .and_then(|s| s.phases.map(|p| p.normalized()));
                norms.push(norm);
            }
            for (i, phase) in Phase::ALL.iter().enumerate() {
                let mut cells = vec![phase.label().to_string()];
                for n in &norms {
                    match n {
                        Some(frac) => cells.push(format!("{:.3}", frac[i])),
                        None => cells.push("-".into()),
                    }
                }
                table.row(cells);
            }
            table.print();
            println!();
        }
    }
    println!("# paper shape: 3D-RGG spends heavily on localPreprocessing; GNM/RMAT skip it");
    println!("# and are dominated by exchangeLabels+relabel and redistribute, which the");
    println!("# filter variants shift into partition+filter");
}
