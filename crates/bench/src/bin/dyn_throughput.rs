//! **Dyn throughput**: updates/sec of the batch-dynamic MSF maintainer
//! vs from-scratch recomputation at every batch boundary, over a sweep
//! of batch sizes — the amortisation curve of the certificate re-solve.
//!
//! Flags:
//!
//! * `--max-cores N` — simulated core count (default 16);
//! * `--v-per-core LOG2` / `--m-per-core LOG2` — weak-scaling sizes
//!   (defaults 10 / 14);
//! * `--ops N` — total update operations per sweep point (default 1024);
//! * `--batches B1,B2,...` — batch sizes (default `16,64,256`);
//! * `--out PATH` — optional JSON output path.

use kamsta::cli;
use kamsta_bench::{bench_mst_config, dyn_throughput_workload, Table, WeakScale};
use std::num::NonZeroUsize;

const SEED: u64 = 42;
const FAMILIES: [&str; 3] = ["GNM", "2D-RGG", "RMAT"];

const USAGE: &str = "usage: dyn_throughput [--max-cores N] [--v-per-core LOG2] \
                     [--m-per-core LOG2] [--ops N] [--batches B1,B2,...] [--out PATH]";

fn main() {
    let (cores, ops, batches, ws, out) = cli::parse_or_exit(USAGE, |f| {
        let nz = |n: usize| NonZeroUsize::new(n).expect("defaults are positive");
        let batches: Vec<NonZeroUsize> = f.get_list("--batches", vec![nz(16), nz(64), nz(256)])?;
        let ws = WeakScale::from_flags(f, WeakScale::DEFAULT)?;
        let out: Option<String> = f.get_opt("--out")?;
        Ok((
            f.get("--max-cores", nz(16))?.get(),
            f.get("--ops", 1024)?,
            batches,
            ws,
            out,
        ))
    });
    let cfg = bench_mst_config();

    let mut table = Table::new(&[
        "family",
        "batch",
        "ops",
        "upd/s",
        "dyn wall",
        "scratch wall",
        "speedup",
        "modeled x",
        "resolves",
        "cert edges",
    ]);
    let mut json_entries: Vec<String> = Vec::new();
    for family in FAMILIES {
        let config = ws.config(family, cores);
        for batch in batches.iter().map(|b| b.get()) {
            let n_batches = (ops / batch).max(1);
            let t = dyn_throughput_workload(cores, config, cfg, SEED, n_batches, batch);
            table.row(vec![
                family.to_string(),
                batch.to_string(),
                t.ops.to_string(),
                format!("{:.0}", t.updates_per_second()),
                format!("{:.4}s", t.dyn_wall),
                format!("{:.4}s", t.scratch_wall),
                format!("{:.2}x", t.wall_speedup()),
                format!("{:.2}x", t.modeled_speedup()),
                t.stats.resolves.to_string(),
                t.stats.certificate_edges.to_string(),
            ]);
            json_entries.push(format!(
                "    {{\"family\": \"{family}\", \"batch\": {batch}, \"ops\": {}, \
                 \"updates_per_second\": {:.3}, \"dyn_wall\": {:.6}, \
                 \"scratch_wall\": {:.6}, \"dyn_modeled\": {:.6}, \
                 \"scratch_modeled\": {:.6}, \"wall_speedup\": {:.3}, \
                 \"modeled_speedup\": {:.3}, \"final_weight\": {}}}",
                t.ops,
                t.updates_per_second(),
                t.dyn_wall,
                t.scratch_wall,
                t.dyn_modeled,
                t.scratch_modeled,
                t.wall_speedup(),
                t.modeled_speedup(),
                t.final_weight,
            ));
        }
    }
    println!("dyn_throughput: cores={cores} seed={SEED} (dyn apply vs from-scratch per batch)");
    table.print();

    if let Some(path) = out {
        let json = format!(
            "{{\n  \"bench\": \"dyn_throughput\", \"cores\": {cores}, \"seed\": {SEED},\n  \
             \"entries\": [\n{}\n  ]\n}}\n",
            json_entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write dyn throughput JSON");
        eprintln!("wrote {path}");
    }
}
