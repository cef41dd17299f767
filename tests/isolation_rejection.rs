//! Byte-for-byte pins of how every process rejects a graph it can never cover.
//!
//! A graph with an isolated vertex is rejected at build time with an `UnsuitableGraph`
//! error that names the *lowest* isolated vertex, in each process's own wording. These
//! tests fix that text for the seven processes and a faulted stack, on graphs that reach
//! the process through every way a `Graph` is made: an edge list, adjacency lists, raw CSR
//! arrays (the `.csrcache` decode path) and a serde round-trip. They also fix the two edge
//! cases the isolation check sits between: the empty graph and the one-vertex graph.

use cobra::core::spec::ProcessSpec;
use cobra::graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Each process (and one faulted stack) with the exact message it gives for a graph whose
/// lowest isolated vertex is 2.
const EXPECTED: [(&str, &str); 9] = [
    ("cobra:k=2", "vertex 2 is isolated and can never be visited"),
    ("cobra:rho=0.5", "vertex 2 is isolated and can never be visited"),
    ("bips:k=2", "vertex 2 is isolated and can never be infected"),
    ("walk", "vertex 2 is isolated and can never be visited"),
    ("multiwalk:w=8", "vertex 2 is isolated and can never be visited"),
    ("push", "vertex 2 is isolated and can never be informed"),
    ("pushpull", "vertex 2 is isolated and can never be informed"),
    ("contact:p=0.8,q=0.1", "vertex 2 is isolated and can never be infected"),
    ("cobra:k=2+drop=0.1+crash=5%", "vertex 2 is isolated and can never be visited"),
];

/// Six vertices, of which 2 and 5 have no edges.
fn with_isolated_vertices() -> Graph {
    Graph::from_edges(6, &[(0, 1), (1, 3), (3, 4), (0, 4)]).unwrap()
}

/// The same graph reached through every construction path.
fn every_build_path(g: &Graph) -> Vec<(&'static str, Graph)> {
    let mut offsets = vec![0u32];
    let mut neighbors = Vec::new();
    for v in g.vertices() {
        neighbors.extend_from_slice(g.neighbors(v));
        offsets.push(neighbors.len() as u32);
    }
    let json = serde_json::to_string(g).unwrap();
    vec![
        ("from_edges", g.clone()),
        ("from_raw_parts", Graph::from_raw_parts(offsets, neighbors).unwrap()),
        ("serde", serde_json::from_str(&json).unwrap()),
    ]
}

fn build_error(spec: &str, graph: &Graph) -> String {
    let spec: ProcessSpec = spec.parse().unwrap();
    match spec.build(graph) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("{spec} built on a graph it cannot cover"),
    }
}

#[test]
fn the_expected_specs_cover_all_seven_processes() {
    let names: std::collections::BTreeSet<&str> =
        EXPECTED.iter().map(|(spec, _)| spec.split([':', '+']).next().unwrap()).collect();
    assert_eq!(names.len(), 7, "{names:?}");
}

#[test]
fn every_process_names_the_lowest_isolated_vertex_on_every_build_path() {
    let g = with_isolated_vertices();
    for (path, graph) in every_build_path(&g) {
        assert_eq!(graph, g, "{path}");
        for (spec, reason) in EXPECTED {
            assert_eq!(
                build_error(spec, &graph),
                format!("graph unsuitable for this process: {reason}"),
                "{spec} on a graph from {path}"
            );
        }
    }
}

#[test]
fn the_stream_engine_build_rejects_with_the_same_text() {
    let g = with_isolated_vertices();
    let mut rng = ChaCha12Rng::seed_from_u64(1);
    for (spec, reason) in EXPECTED {
        let parsed: ProcessSpec = spec.parse().unwrap();
        let Err(err) = parsed.build_parallel(&g, 2, &mut rng) else {
            panic!("{spec} built on a graph it cannot cover");
        };
        assert_eq!(err.to_string(), format!("graph unsuitable for this process: {reason}"));
    }
}

#[test]
fn the_empty_graph_is_rejected_as_empty_and_a_single_vertex_builds() {
    let single = Graph::from_edges(1, &[]).unwrap();
    for (spec, _) in EXPECTED {
        assert_eq!(
            build_error(spec, &Graph::default()),
            "graph unsuitable for this process: empty graph",
            "{spec}"
        );
        let parsed: ProcessSpec = spec.parse().unwrap();
        assert!(parsed.build(&single).is_ok(), "{spec} must build on one vertex");
    }
}
