//! DIMACS round trip: write a `.gr` file, load it, distribute it, and
//! compute its MST — the path a user takes with the real US-road
//! instance.

use kamsta::core::seq::{kruskal, msf_weight};
use kamsta::{Algorithm, Runner, WEdge};
use kamsta_graph::io::{load_dimacs, parse_dimacs, symmetrize};
use proptest::prelude::*;
use std::io::{ErrorKind, Write};

#[test]
fn dimacs_file_to_mst() {
    // A small weighted graph in DIMACS shortest-path format.
    let dir = std::env::temp_dir().join("kamsta_test_dimacs");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy.gr");
    {
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "c toy road network").unwrap();
        writeln!(f, "p sp 6 16").unwrap();
        let arcs = [
            (1, 2, 7),
            (1, 3, 9),
            (1, 6, 14),
            (2, 3, 10),
            (2, 4, 15),
            (3, 4, 11),
            (3, 6, 2),
            (4, 5, 6),
            (5, 6, 9),
        ];
        for (u, v, w) in arcs {
            writeln!(f, "a {u} {v} {w}").unwrap();
            writeln!(f, "a {v} {u} {w}").unwrap();
        }
    }

    let (n, edges) = load_dimacs(&path).expect("parse");
    assert_eq!(n, 6);
    assert_eq!(edges.len(), 18);
    let edges = symmetrize(edges);

    let (msf, summary) = Runner::new(3, 1).msf_edges(edges.clone(), Algorithm::Boruvka);
    kamsta::verify_msf(&edges, &msf).unwrap();
    // Classic Dijkstra-example graph: its MST weight is 33.
    assert_eq!(summary.msf_weight, 33);
    assert_eq!(summary.msf_weight, msf_weight(&kruskal(&edges)));
    assert_eq!(summary.msf_edges, 5);

    std::fs::remove_file(&path).ok();
}

#[test]
fn dimacs_disconnected_forest() {
    let text = "p sp 6 4\na 1 2 5\na 2 1 5\na 4 5 7\na 5 4 7\n";
    let (_, edges) = kamsta_graph::io::parse_dimacs(text.as_bytes()).unwrap();
    let edges = symmetrize(edges);
    let (msf, summary) = Runner::new(2, 1).msf_edges(edges.clone(), Algorithm::Boruvka);
    kamsta::verify_msf(&edges, &msf).unwrap();
    assert_eq!(summary.msf_edges, 2, "two components, one edge each");
    assert_eq!(summary.msf_weight, 12);
}

#[test]
fn dimacs_arcs_outside_the_header_range_are_typed_errors() {
    let max = u64::MAX;
    for (text, line) in [
        ("p sp 3 1\na 0 1 5\n", 2),
        ("p sp 3 1\na 1 0 5\n", 2),
        ("p sp 3 2\na 1 2 5\na 2 4 5\n", 3),
        ("c ids at the sentinel\np sp 3 1\na {max} 1 5\n", 3),
        ("p sp 3 1\na 1 {max-1} 5\n", 2),
        ("a 1 2 5\np sp 3 1\n", 1),
        ("p sp {max} 1\na {max} 1 5\n", 1),
    ] {
        let text = text
            .replace("{max}", &max.to_string())
            .replace("{max-1}", &(max - 1).to_string());
        let err = parse_dimacs(text.as_bytes()).expect_err(&text);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{text}");
        assert!(
            err.to_string().starts_with(&format!("line {line}:")),
            "{text}: {err}"
        );
    }
    // The range is inclusive at both ends.
    let (n, edges) = parse_dimacs("p sp 3 1\na 1 3 5\n".as_bytes()).unwrap();
    assert_eq!((n, edges), (3, vec![WEdge::new(1, 3, 5)]));
}

/// Bytes biased towards the `.gr` alphabet, so some inputs reach the arc
/// checks instead of failing on the first token.
fn arb_gr_bytes() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"acp sp 0123456789\n\n  -x";
    prop::collection::vec((any::<bool>(), any::<u8>()), 0..200).prop_map(|raw| {
        raw.into_iter()
            .map(|(raw, b)| match raw {
                true => b,
                false => ALPHABET[b as usize % ALPHABET.len()],
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dimacs_arbitrary_bytes_never_panic(bytes in arb_gr_bytes()) {
        if let Ok((n, edges)) = parse_dimacs(bytes.as_slice()) {
            for e in edges {
                prop_assert!((1..=n).contains(&e.u) && (1..=n).contains(&e.v));
            }
        }
    }

    #[test]
    fn dimacs_written_graph_parses_back(
        n in 1u64..64,
        raw in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u32>()), 0..100),
    ) {
        let edges: Vec<WEdge> = raw
            .into_iter()
            .map(|(u, v, w)| WEdge::new(u % n + 1, v % n + 1, w))
            .collect();
        let mut gr = format!("c written by the round-trip property\np sp {n} {}\n", edges.len());
        for e in &edges {
            gr.push_str(&format!("a {} {} {}\n", e.u, e.v, e.w));
        }
        let parsed = parse_dimacs(gr.as_bytes());
        prop_assert!(parsed.is_ok(), "{gr}");
        prop_assert_eq!(parsed.unwrap(), (n, edges));
    }
}
