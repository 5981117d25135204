//! **Fig. 3**: weak-scaling throughput (edges per second) on the six
//! synthetic graph families for `boruvka`, `filterBoruvka`, `MND-MST`
//! and `sparseMatrix`, each with 1 and 8 threads per process in the
//! paper (competitors here run single-threaded; their hybrid variants
//! share the same algorithm structure).

use kamsta_bench::{
    bench_mst_config, core_series, eng, paper_variants, weak_scaling_args, Table, WeakScale,
};

const FAMILIES: [&str; 6] = ["2D-GRID", "2D-RGG", "3D-RGG", "GNM", "RHG", "RMAT"];

fn main() {
    let (max_cores, ws) = weak_scaling_args("fig3_weak_scaling", WeakScale::DEFAULT);
    println!(
        "# Fig. 3 — weak scaling, 2^{} vertices and 2^{} directed edges per core (paper: 2^17 / 2^21)",
        ws.v_per_core, ws.m_per_core
    );
    println!("# cells: modeled throughput in edges/second (higher is better)\n");

    let variants = paper_variants();
    for family in FAMILIES {
        println!("## {family}");
        let mut headers: Vec<String> = vec!["cores".into()];
        headers.extend(variants.iter().map(|v| v.label()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&header_refs);
        for cores in core_series(max_cores) {
            let config = ws.config(family, cores);
            let mut cells = vec![cores.to_string()];
            let mut weights: Vec<u64> = Vec::new();
            for v in &variants {
                match v.run(cores, config, bench_mst_config(), 42) {
                    Some(s) => {
                        weights.push(s.msf_weight);
                        cells.push(eng(s.edges_per_second));
                    }
                    None => cells.push("-".into()),
                }
            }
            weights.dedup();
            assert!(weights.len() <= 1, "{family}@{cores}: weight disagreement");
            table.row(cells);
        }
        table.print();
        println!();
    }
    println!("# paper shape: boruvka/filterBoruvka dominate everywhere; filter wins on GNM/RMAT;");
    println!("# competitors trail by 1-2 orders of magnitude, most on high-locality families");
}
