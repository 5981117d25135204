//! Graph IO: the DIMACS `.gr` format (used by the 9th DIMACS challenge,
//! the source of the paper's US-road instance) and root-based
//! distribution of externally loaded edge lists.

use crate::edge::{VertexId, WEdge};
use kamsta_comm::Comm;
use std::io::BufRead;

/// Parse a DIMACS shortest-path `.gr` file: `p sp <n> <m>` header and
/// `a <u> <v> <w>` arc lines (1-based vertices; we keep them 1-based).
/// Returns `(n, edges)`. Most DIMACS graphs list both arc directions; use
/// [`symmetrize`] if the source does not.
///
/// Every arc endpoint must lie in the header's `1..=n`, so an arc before
/// the `p` line is an error, and `n` must stay below the reserved
/// `VertexId::MAX`. Violations come back as `InvalidData` naming the
/// line.
pub fn parse_dimacs<R: BufRead>(reader: R) -> std::io::Result<(u64, Vec<WEdge>)> {
    let mut n = 0u64;
    let mut edges = Vec::new();
    for (at, line) in reader.lines().enumerate() {
        let line = line?;
        let bad = |msg: &str| invalid(at + 1, msg);
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("c") | None => continue,
            Some("p") => {
                // "p sp n m"
                let _sp = parts.next();
                n = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("missing n in p-line"))?;
                if n == VertexId::MAX {
                    return Err(bad("n reaches the reserved vertex id"));
                }
            }
            Some("a") => {
                let mut endpoint = |what: &str| {
                    parts
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| bad(&format!("bad arc {what}")))
                        .and_then(|x| {
                            (1..=n)
                                .contains(&x)
                                .then_some(x)
                                .ok_or_else(|| bad(&format!("arc {what} {x} outside 1..={n}")))
                        })
                };
                let u = endpoint("src")?;
                let v = endpoint("dst")?;
                let w: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("bad arc weight"))?;
                edges.push(WEdge::new(u, v, w));
            }
            _ => continue,
        }
    }
    Ok((n, edges))
}

fn invalid(line: usize, msg: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("line {line}: {msg}"),
    )
}

/// Load a DIMACS `.gr` file from disk.
pub fn load_dimacs(path: &std::path::Path) -> std::io::Result<(u64, Vec<WEdge>)> {
    let file = std::fs::File::open(path)?;
    parse_dimacs(std::io::BufReader::new(file))
}

/// Ensure every edge has its back edge; deduplicates directed edges and
/// keeps the lightest weight per direction pair.
pub fn symmetrize(mut edges: Vec<WEdge>) -> Vec<WEdge> {
    let reversed: Vec<WEdge> = edges.iter().map(WEdge::reversed).collect();
    edges.extend(reversed);
    edges.sort_unstable();
    edges.dedup_by(|next, first| next.u == first.u && next.v == first.v);
    edges
}

/// Distribute an edge list held by the root PE into the balanced, sorted
/// block partition the algorithms expect. Non-root PEs pass `None`.
/// Collective.
pub fn distribute_from_root(comm: &Comm, edges: Option<Vec<WEdge>>) -> Vec<WEdge> {
    let p = comm.size();
    let bufs = if comm.rank() == 0 {
        let mut edges = edges.expect("root must supply the edge list");
        edges.sort_unstable();
        let total = edges.len();
        // Sorted blocks are contiguous: the payload is already in bucket
        // order, so the flat buffer wraps it without a scatter pass.
        let counts: Vec<usize> = (0..p)
            .map(|i| (i + 1) * total / p - i * total / p)
            .collect();
        kamsta_comm::FlatBuckets::from_counts(edges, &counts)
    } else {
        kamsta_comm::FlatBuckets::empty(p)
    };
    comm.alltoallv_direct(bufs).into_payload()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};

    const SAMPLE: &str = "c test graph\n\
                          p sp 4 5\n\
                          a 1 2 10\n\
                          a 2 1 10\n\
                          a 2 3 5\n\
                          a 3 2 5\n\
                          a 3 4 2\n";

    #[test]
    fn parses_dimacs() {
        let (n, edges) = parse_dimacs(SAMPLE.as_bytes()).unwrap();
        assert_eq!(n, 4);
        assert_eq!(edges.len(), 5);
        assert_eq!(edges[0], WEdge::new(1, 2, 10));
        assert_eq!(edges[4], WEdge::new(3, 4, 2));
    }

    #[test]
    fn symmetrize_adds_missing_back_edges() {
        let (_, edges) = parse_dimacs(SAMPLE.as_bytes()).unwrap();
        let sym = symmetrize(edges);
        assert_eq!(sym.len(), 6); // (3,4) gains (4,3)
        assert!(sym.contains(&WEdge::new(4, 3, 2)));
        assert!(sym.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_dimacs("a 1 nope 3\n".as_bytes()).is_err());
        assert!(parse_dimacs("p sp\n".as_bytes()).is_err());
    }

    #[test]
    fn distributes_from_root() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let edges = if comm.rank() == 0 {
                // Unsorted on purpose.
                Some(vec![
                    WEdge::new(5, 1, 1),
                    WEdge::new(0, 1, 2),
                    WEdge::new(3, 2, 3),
                    WEdge::new(1, 0, 2),
                    WEdge::new(2, 3, 3),
                ])
            } else {
                None
            };
            distribute_from_root(comm, edges)
        });
        let flat: Vec<WEdge> = out.results.iter().flatten().copied().collect();
        assert_eq!(flat.len(), 5);
        assert!(
            flat.windows(2).all(|w| w[0] <= w[1]),
            "sorted after distribution"
        );
        let sizes: Vec<usize> = out.results.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 5);
        assert!(sizes.iter().all(|&s| s >= 1));
    }
}
