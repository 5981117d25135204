//! What is measured: the five workloads, and the metric registry read
//! from `BENCHMARK.json` (the one place names, units, directions and
//! bounds are written down).

use crate::json::{self, Value};
use kamsta::{Algorithm, DynConfig, GraphConfig, MachineConfig, MstConfig, TransportKind};

/// PEs of every machine the benchmark starts: one per physical core of
/// the 2-core host, one thread each. The harness thread only waits.
pub const PES: usize = 2;

/// Updates per `try_flush` and membership queries per round of
/// `svc-mixed`.
pub const SVC_BATCH: usize = 64;
pub const SVC_QUERIES: usize = 4096;
/// Every this-many rounds `svc-mixed` compares the service against
/// sequential Kruskal over the generator's live set.
pub const SVC_CHECK_EVERY: usize = 50;

/// How one run is driven: the command line's arguments, plus the two
/// switches only the crate's smoke test sets.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measuring window; timed ops repeat until it is
    /// spent.
    pub seconds: f64,
    pub trace: bool,
    /// Timed ops to run even when the window is already spent.
    pub min_ops: usize,
    /// Shrink graphs and probes to 2^8-vertex scale.
    pub smoke: bool,
    /// Swap one edge of the forest under verification for a non-edge,
    /// to show that a wrong forest is counted as failed.
    pub corrupt_msf: bool,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// One solve of a generated graph per timed op.
    Static(Algorithm),
    /// `MstService` closed loop: updates, flush, queries.
    Service,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub graph: GraphConfig,
    pub transport: TransportKind,
}

const GNM: GraphConfig = GraphConfig::Gnm {
    n: 1 << 16,
    m: 1 << 20,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "gnm-dense",
        kind: Kind::Static(Algorithm::Boruvka),
        graph: GNM,
        transport: TransportKind::Cells,
    },
    Workload {
        name: "gnm-filter",
        kind: Kind::Static(Algorithm::FilterBoruvka),
        graph: GNM,
        transport: TransportKind::Cells,
    },
    Workload {
        name: "rgg-local",
        kind: Kind::Static(Algorithm::Boruvka),
        graph: GraphConfig::Rgg2D {
            n: 1 << 18,
            m: 1 << 22,
        },
        transport: TransportKind::Cells,
    },
    Workload {
        name: "gnm-sockets",
        kind: Kind::Static(Algorithm::Boruvka),
        graph: GNM,
        transport: TransportKind::Sockets,
    },
    Workload {
        name: "svc-mixed",
        kind: Kind::Service,
        graph: GraphConfig::Gnm {
            n: 1 << 15,
            m: 1 << 19,
        },
        transport: TransportKind::Sockets,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload on a 2^8-vertex graph of the same family and
    /// degree, for the crate's smoke test.
    #[cfg(test)]
    pub fn smoke(mut self) -> Workload {
        self.graph = match self.graph {
            GraphConfig::Gnm { .. } => GraphConfig::Gnm {
                n: 1 << 8,
                m: 1 << 12,
            },
            GraphConfig::Rgg2D { .. } => GraphConfig::Rgg2D {
                n: 1 << 8,
                m: 1 << 12,
            },
            other => other,
        };
        self
    }

    pub fn machine(&self) -> MachineConfig {
        MachineConfig::new(PES)
            .with_threads(1)
            .with_transport(self.transport)
    }

    pub fn mst(&self) -> MstConfig {
        MstConfig::default()
    }

    /// Vertex space of the service: the generators emit ids below `n`.
    pub fn dyn_cfg(&self) -> DynConfig {
        let n = match self.graph {
            GraphConfig::Gnm { n, .. } | GraphConfig::Rgg2D { n, .. } => n,
            _ => unreachable!("the benchmark's workloads are GNM and 2D-RGG"),
        };
        DynConfig::new(n).with_mst(self.mst())
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound as a share of the baseline; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Registry {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub workloads: Vec<String>,
    /// Default length of the measuring window.
    pub run_seconds: f64,
}

impl Registry {
    /// The registry compiled in from the repo's `BENCHMARK.json`.
    pub fn load() -> Registry {
        Self::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Registry, String> {
        let root = json::parse(text)?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            root.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("BENCHMARK.json: missing array {key}"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .ok_or(format!("BENCHMARK.json: {key} entry without {f}"))
                    };
                    Ok(MetricDef {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: match field("better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = {other}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let workloads = root
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: missing workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect();
        Ok(Registry {
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
            workloads,
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
        })
    }

    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
