//! Plain-text serialisation of graphs as whitespace-separated edge lists.
//!
//! The experiment harness writes generated instances to disk so runs can be replayed exactly;
//! the formats here are deliberately minimal and dependency-free. Real-world topologies load
//! through [`load_edge_list_file`], which tolerates SNAP-style exports behind a `lenient`
//! flag and keeps a versioned binary CSR cache next to the source file so re-runs skip text
//! parsing entirely.

use std::fmt::Write as _;
use std::path::Path;

use crate::{Graph, GraphError, Result};

/// Headers are untrusted input: never pre-allocate more than this many edges on the strength
/// of the announced count alone (a bogus `0 18446744073709551615` header must not attempt a
/// 256 PiB allocation before the first edge line is read).
const MAX_TRUSTED_CAPACITY: usize = 1 << 20;

/// Serialises a graph as an edge list.
///
/// The first line is `n m`; each subsequent line is an edge `u v` with `u < v`. The format
/// round-trips exactly through [`parse_edge_list`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), cobra_graph::GraphError> {
/// use cobra_graph::{io, Graph};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// let text = io::to_edge_list(&g);
/// let parsed = io::parse_edge_list(&text)?;
/// assert_eq!(g, parsed);
/// # Ok(())
/// # }
/// ```
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", g.num_vertices(), g.num_edges());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

/// Parses the edge-list format produced by [`to_edge_list`].
///
/// Blank lines and lines starting with `#` are ignored.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed headers or edge lines, and propagates
/// [`Graph::from_edges`] errors (out-of-range endpoints, self-loops, duplicates).
pub fn parse_edge_list(text: &str) -> Result<Graph> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (header_line, header) = lines
        .next()
        .ok_or(GraphError::Parse { line: 1, reason: "missing header line `n m`".to_string() })?;
    let mut parts = header.split_whitespace();
    let n: usize = parse_token(parts.next(), header_line, "vertex count")?;
    let m: usize = parse_token(parts.next(), header_line, "edge count")?;
    if parts.next().is_some() {
        return Err(GraphError::Parse {
            line: header_line,
            reason: "header must contain exactly two integers".to_string(),
        });
    }

    let mut edges = Vec::with_capacity(m.min(MAX_TRUSTED_CAPACITY));
    for (line_no, line) in lines {
        let mut parts = line.split_whitespace();
        let u: usize = parse_token(parts.next(), line_no, "edge endpoint")?;
        let v: usize = parse_token(parts.next(), line_no, "edge endpoint")?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                reason: "edge line must contain exactly two integers".to_string(),
            });
        }
        edges.push((u, v));
    }
    if edges.len() != m {
        return Err(GraphError::Parse {
            line: header_line,
            reason: format!("header announced {m} edges but {} were supplied", edges.len()),
        });
    }
    Graph::from_edges(n, &edges)
}

fn parse_token(token: Option<&str>, line: usize, what: &str) -> Result<usize> {
    let token =
        token.ok_or_else(|| GraphError::Parse { line, reason: format!("missing {what}") })?;
    token
        .parse::<usize>()
        .map_err(|_| GraphError::Parse { line, reason: format!("invalid {what}: {token:?}") })
}

/// Parses a headerless SNAP-style edge list, tolerating real-world export quirks.
///
/// Every non-comment line is an edge `u v`; there is no `n m` header. Unlike
/// [`parse_edge_list`] this accepts unordered endpoints, 1-indexed (or arbitrarily gappy)
/// vertex ids, duplicate edges in either orientation, and self-loops: self-loops are dropped,
/// duplicates are folded, and the ids that actually appear are remapped densely onto
/// `0..n` in ascending order of the original id.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for lines that are not two whitespace-separated integers.
fn parse_edge_list_lenient(text: &str) -> Result<Graph> {
    let mut raw: Vec<(usize, usize)> = Vec::new();
    for (line_no, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l.trim())) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let u: usize = parse_token(parts.next(), line_no, "edge endpoint")?;
        let v: usize = parse_token(parts.next(), line_no, "edge endpoint")?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                reason: "edge line must contain exactly two integers".to_string(),
            });
        }
        if u == v {
            continue; // real-world exports carry self-loops; simple graphs cannot
        }
        raw.push((u.min(v), u.max(v)));
    }
    let mut ids: Vec<usize> = raw.iter().flat_map(|&(u, v)| [u, v]).collect();
    ids.sort_unstable();
    ids.dedup();
    let remap = |id: usize| ids.binary_search(&id).expect("every endpoint was collected above");
    let mut edges: Vec<(usize, usize)> = raw.iter().map(|&(u, v)| (remap(u), remap(v))).collect();
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(ids.len(), &edges)
}

/// Loads an edge-list file from disk, keeping a versioned binary CSR cache beside it.
///
/// The first load parses the text (strict [`parse_edge_list`] format, or the headerless
/// SNAP-style format when `lenient` is set) and writes `<path>.csrcache`; later
/// loads decode the cache directly — validated through [`Graph::from_raw_parts`], and keyed
/// on the source file's length and fingerprint so an edited source transparently rebuilds.
/// Cache *write* failures (read-only directories) are deliberately swallowed: the cache is
/// an accelerator, never a correctness dependency.
///
/// # Errors
///
/// Returns [`GraphError::Io`] if the source file cannot be read, and the underlying parse
/// errors for malformed content.
pub fn load_edge_list_file(path: &str, lenient: bool) -> Result<Graph> {
    let bytes = std::fs::read(path)
        .map_err(|e| GraphError::Io { path: path.to_string(), reason: e.to_string() })?;
    // The flag changes parse semantics, so it is part of the cache key.
    let fingerprint = fnv1a(&bytes) ^ u64::from(lenient);
    let cache_path = format!("{path}.csrcache");
    if let Some(graph) = read_csr_cache(Path::new(&cache_path), bytes.len() as u64, fingerprint) {
        return Ok(graph);
    }
    let text = std::str::from_utf8(&bytes).map_err(|_| GraphError::Parse {
        line: 1,
        reason: format!("file {path:?} is not valid UTF-8"),
    })?;
    let graph = if lenient { parse_edge_list_lenient(text) } else { parse_edge_list(text) }?;
    let _ = write_csr_cache(Path::new(&cache_path), bytes.len() as u64, fingerprint, &graph);
    Ok(graph)
}

/// Cache file layout (all integers little-endian):
/// magic `COBRACSR` · `u32` version · `u64` source length · `u64` source fingerprint ·
/// `u64` n · `u64` arc count · `(n+1) × u32` offsets · `arcs × u32` neighbours.
///
/// Version 1 stored the arrays as `u64`; a version-1 file is stale and is rebuilt from the
/// text and rewritten.
const CSR_CACHE_MAGIC: &[u8; 8] = b"COBRACSR";
const CSR_CACHE_VERSION: u32 = 2;

/// FNV-1a over the source bytes: cheap, dependency-free change detection (not security).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Decodes a cache file; any mismatch or corruption yields `None` (rebuild from text).
fn read_csr_cache(path: &Path, source_len: u64, fingerprint: u64) -> Option<Graph> {
    let bytes = std::fs::read(path).ok()?;
    let rest = bytes.strip_prefix(CSR_CACHE_MAGIC.as_slice())?;
    let (version_bytes, rest) = rest.split_at_checked(4)?;
    if u32::from_le_bytes(version_bytes.try_into().ok()?) != CSR_CACHE_VERSION {
        return None;
    }
    fn next_u64(rest: &[u8], pos: &mut usize) -> Option<u64> {
        let word = rest.get(*pos..*pos + 8)?;
        *pos += 8;
        Some(u64::from_le_bytes(word.try_into().ok()?))
    }
    let mut pos = 0usize;
    if next_u64(rest, &mut pos)? != source_len || next_u64(rest, &mut pos)? != fingerprint {
        return None;
    }
    let n = usize::try_from(next_u64(rest, &mut pos)?).ok()?;
    let arcs = usize::try_from(next_u64(rest, &mut pos)?).ok()?;
    // Validate the announced sizes against the actual file length before allocating;
    // `from_raw_parts` then rejects more vertices or arcs than the CSR can index.
    let words = n.checked_add(1)?.checked_add(arcs)?;
    let body = &rest[pos..];
    if body.len() != words.checked_mul(4)? {
        return None;
    }
    let mut entries = body
        .chunks_exact(4)
        .map(|word| u32::from_le_bytes(word.try_into().expect("chunks are 4 bytes")));
    let offsets: Vec<u32> = entries.by_ref().take(n + 1).collect();
    let neighbors: Vec<u32> = entries.collect();
    Graph::from_raw_parts(offsets, neighbors).ok()
}

/// Encodes the cache file; errors surface to the caller, who may ignore them.
fn write_csr_cache(
    path: &Path,
    source_len: u64,
    fingerprint: u64,
    graph: &Graph,
) -> std::io::Result<()> {
    let (offsets, neighbors) = graph.raw_parts();
    let mut out = Vec::with_capacity(8 + 4 + 8 * 4 + 4 * (offsets.len() + neighbors.len()));
    out.extend_from_slice(CSR_CACHE_MAGIC);
    out.extend_from_slice(&CSR_CACHE_VERSION.to_le_bytes());
    out.extend_from_slice(&source_len.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
    out.extend_from_slice(&(neighbors.len() as u64).to_le_bytes());
    for &entry in offsets.iter().chain(neighbors) {
        out.extend_from_slice(&entry.to_le_bytes());
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_round_trip() {
        let g = generators::petersen().unwrap();
        let text = to_edge_list(&g);
        let parsed = parse_edge_list(&text).unwrap();
        assert_eq!(g, parsed);
    }

    #[test]
    fn edge_list_round_trip_empty_graph() {
        let g = Graph::default();
        let parsed = parse_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(g, parsed);
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let text = "# a triangle\n\n3 3\n0 1\n# middle comment\n1 2\n0 2\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn parse_rejects_missing_header() {
        let err = parse_edge_list("").unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn parse_rejects_bad_tokens() {
        assert!(matches!(parse_edge_list("x y\n").unwrap_err(), GraphError::Parse { .. }));
        assert!(matches!(parse_edge_list("3\n").unwrap_err(), GraphError::Parse { .. }));
        assert!(matches!(parse_edge_list("3 1 9\n0 1\n").unwrap_err(), GraphError::Parse { .. }));
        assert!(matches!(parse_edge_list("3 1\n0 1 2\n").unwrap_err(), GraphError::Parse { .. }));
    }

    #[test]
    fn parse_rejects_edge_count_mismatch() {
        let err = parse_edge_list("3 2\n0 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn parse_propagates_graph_errors() {
        let err = parse_edge_list("2 1\n0 5\n").unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
        let err = parse_edge_list("2 1\n1 1\n").unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { .. }));
    }

    #[test]
    fn parse_survives_huge_edge_count_header() {
        // The header is untrusted: a bogus announced edge count must fail with a parse
        // error after reading the input, not attempt a pre-allocation of 2^64 entries.
        let err = parse_edge_list("0 18446744073709551615\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
        let err = parse_edge_list("3 99999999999999\n0 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn lenient_parse_tolerates_real_world_quirks() {
        // 1-indexed, unordered, duplicated in both orientations, a self-loop, comments,
        // and a gap in the id space (vertex 4 never appears).
        let text = "# SNAP-style export\n2 1\n1 2\n# dup below\n2 1\n3 3\n5 3\n3 5\n";
        let g = parse_edge_list_lenient(text).unwrap();
        assert_eq!(g.num_vertices(), 4); // ids {1, 2, 3, 5} remapped to 0..4
        assert_eq!(g.num_edges(), 2); // {1,2} and {3,5}, self-loop dropped
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn lenient_parse_of_empty_input_is_the_empty_graph() {
        let g = parse_edge_list_lenient("# nothing here\n").unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn lenient_parse_still_rejects_garbage_tokens() {
        assert!(matches!(
            parse_edge_list_lenient("1 two\n").unwrap_err(),
            GraphError::Parse { .. }
        ));
        assert!(matches!(
            parse_edge_list_lenient("1 2 3\n").unwrap_err(),
            GraphError::Parse { .. }
        ));
    }

    #[test]
    fn load_edge_list_file_round_trips_through_the_cache() {
        let g = generators::petersen().unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join("cobra_io_cache_test.edges");
        let path_str = path.to_str().unwrap().to_string();
        let cache = format!("{path_str}.csrcache");
        let _ = std::fs::remove_file(&cache);
        std::fs::write(&path, to_edge_list(&g)).unwrap();

        // First load parses the text and writes the cache.
        let first = load_edge_list_file(&path_str, false).unwrap();
        assert_eq!(first, g);
        assert!(std::fs::metadata(&cache).is_ok(), "cache file should exist after first load");

        // Second load decodes the cache — and must yield the identical graph.
        let second = load_edge_list_file(&path_str, false).unwrap();
        assert_eq!(second, g);

        // A *corrupt* cache is ignored, not trusted.
        std::fs::write(&cache, b"COBRACSRgarbage").unwrap();
        let third = load_edge_list_file(&path_str, false).unwrap();
        assert_eq!(third, g);

        // Editing the source invalidates the stale cache (fingerprint mismatch).
        let g2 = generators::cycle(5).unwrap();
        std::fs::write(&path, to_edge_list(&g2)).unwrap();
        let _ = load_edge_list_file(&path_str, false); // rewrite cache for g2
        let fourth = load_edge_list_file(&path_str, false).unwrap();
        assert_eq!(fourth, g2);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&cache);
    }

    #[test]
    fn a_version_1_cache_is_stale_and_is_rewritten_as_version_2() {
        let g = generators::petersen().unwrap();
        let path = std::env::temp_dir().join("cobra_io_v1_cache_test.edges");
        let path_str = path.to_str().unwrap().to_string();
        let cache = format!("{path_str}.csrcache");
        let text = to_edge_list(&g);
        std::fs::write(&path, &text).unwrap();

        // A well-formed version-1 file (`u64` entries) with the right key, holding a
        // different graph: if it were decoded, the load would return the wrong graph.
        let stale = generators::cycle(10).unwrap();
        let (offsets, neighbors) = stale.raw_parts();
        let mut v1 = CSR_CACHE_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        let header = [text.len() as u64, fnv1a(text.as_bytes()), 10, neighbors.len() as u64];
        for word in header.into_iter().chain(offsets.iter().chain(neighbors).map(|&e| e.into())) {
            v1.extend_from_slice(&word.to_le_bytes());
        }
        std::fs::write(&cache, &v1).unwrap();

        assert_eq!(load_edge_list_file(&path_str, false).unwrap(), g);
        let rewritten = std::fs::read(&cache).unwrap();
        assert_eq!(&rewritten[..8], CSR_CACHE_MAGIC);
        assert_eq!(rewritten[8..12], 2u32.to_le_bytes());
        // Header of 8 + 4 + 4·8 bytes, then (n + 1) + 2m entries of 4 bytes.
        assert_eq!(rewritten.len(), 44 + 4 * (11 + 30));
        // The rewritten cache decodes to the same graph.
        assert_eq!(load_edge_list_file(&path_str, false).unwrap(), g);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&cache);
    }

    #[test]
    fn load_edge_list_file_reports_missing_files() {
        let err = load_edge_list_file("/nonexistent/never/there.edges", false).unwrap_err();
        assert!(matches!(err, GraphError::Io { .. }));
        assert!(err.to_string().contains("there.edges"));
    }

    #[test]
    fn lenient_flag_is_part_of_the_cache_key() {
        let dir = std::env::temp_dir();
        let path = dir.join("cobra_io_lenient_key_test.edges");
        let path_str = path.to_str().unwrap().to_string();
        let cache = format!("{path_str}.csrcache");
        let _ = std::fs::remove_file(&cache);
        // 1-indexed triangle: strict parse rejects it (header missing), lenient accepts.
        std::fs::write(&path, "1 2\n2 3\n1 3\n").unwrap();
        let lenient = load_edge_list_file(&path_str, true).unwrap();
        assert_eq!(lenient.num_vertices(), 3);
        assert_eq!(lenient.num_edges(), 3);
        // The strict load must not be served the lenient cache: "1 2" is a header
        // announcing 1 vertex and 2 edges, so it fails.
        assert!(load_edge_list_file(&path_str, false).is_err());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&cache);
    }
}
