//! Dataset and graph serialization.
//!
//! A small JSON-based format so that experiment runs can snapshot the exact
//! synthetic datasets they used (graphs, splits, ground truth) and be
//! replayed later. The writer and parser are hand-rolled (the build
//! environment is offline, so no serde): the grammar is the fixed shape
//! below, not general JSON.
//!
//! ```text
//! graph   := {"labels":[u32,...],"edges":[[u32,u32],...]}
//! dataset := {"kind":"AIDS"|"Linux"|"IMDB","graphs":[graph,...]}
//! ```
//!
//! # Sharded-store snapshots
//!
//! [`crate::shard::ShardedStore`] persists itself through the same
//! hand-rolled codec (see [`crate::shard::ShardedStore::save`] /
//! [`crate::shard::ShardedStore::load`]). Unlike datasets — where
//! [`crate::store::GraphId`]s are process-local handles and are *not*
//! persisted — snapshots do carry each graph's raw sequence number, so a
//! loaded store resolves exactly the ids the saved one did (the global
//! allocator is advanced past every restored seq to keep ids unique).
//! The grammar, layered on the `graph` production above:
//!
//! ```text
//! pivdist  := [u64,u64]                              // [lb,ub]; lb = ub when exact
//! pivrow   := {"seq":u64,"dists":[pivdist,...]}      // one row per member graph
//! pivots   := null
//!           | {"target":u64,"revision":u64,"ids":[u64,...],"rows":[pivrow,...]}
//! entry    := {"seq":u64,"graph":graph}
//! shard    := {"bucket":u64,"revision":u64,"entries":[entry,...],"pivots":pivots}
//! snapshot := {"schema":1,"bucket_width":u64,"revision":u64,"shards":[shard,...]}
//! ```
//!
//! Signatures and CSR views are *not* persisted: both are deterministic
//! functions of the graph and are recomputed on load.

use crate::dataset::{DatasetKind, GraphDataset};
use crate::graph::{Graph, Label};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A structured JSON-codec error: what went wrong and exactly where.
///
/// Positions are reported three ways — absolute byte offset plus 1-based
/// line and column — because the codec parses both whole files
/// ([`load_dataset`]) and single lines of a line-delimited protocol, where
/// the caller wants to prefix its own line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Absolute byte offset into the input where the error was detected.
    pub at: usize,
    /// 1-based line number of `at`.
    pub line: usize,
    /// 1-based byte column of `at` within its line.
    pub column: usize,
    /// What the parser expected or which invariant the input violated.
    pub kind: ParseErrorKind,
}

/// The failure cases of the graph/dataset grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A fixed token of the grammar was expected.
    Expected(&'static str),
    /// A decimal number was expected.
    ExpectedNumber,
    /// A number does not fit in the integer width the grammar calls for
    /// (`u32` for labels and edge endpoints, `u64` for snapshot fields).
    NumberOverflow,
    /// An edge `(u, u)` — the graphs here are simple.
    SelfLoop(u32),
    /// An edge endpoint at or beyond the node count.
    EdgeOutOfRange {
        /// The offending edge.
        edge: (u32, u32),
        /// The graph's node count.
        nodes: u32,
    },
    /// The same undirected edge listed twice.
    DuplicateEdge(u32, u32),
    /// A dataset `kind` string that is not `AIDS`, `Linux`, or `IMDB`.
    UnknownKind,
    /// Input continuing past the end of the value.
    TrailingInput,
    /// A syntactically well-formed field holding a semantically invalid
    /// value (used by grammars layered on top of this codec, e.g. the
    /// `ged-server` wire protocol: unknown op, bad protocol version).
    Invalid(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}, column {} (byte {}): ",
            self.line, self.column, self.at
        )?;
        match &self.kind {
            ParseErrorKind::Expected(token) => write!(f, "expected `{token}`"),
            ParseErrorKind::ExpectedNumber => write!(f, "expected a number"),
            ParseErrorKind::NumberOverflow => write!(f, "number overflows its field"),
            ParseErrorKind::SelfLoop(u) => write!(f, "self loop at node {u}"),
            ParseErrorKind::EdgeOutOfRange {
                edge: (u, v),
                nodes,
            } => {
                write!(f, "edge ({u},{v}) out of range (n={nodes})")
            }
            ParseErrorKind::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u},{v})"),
            ParseErrorKind::UnknownKind => write!(f, "unknown dataset kind"),
            ParseErrorKind::TrailingInput => write!(f, "trailing input after value"),
            ParseErrorKind::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a graph to a JSON string.
#[must_use]
pub fn graph_to_json(g: &Graph) -> String {
    let mut s = String::from("{\"labels\":[");
    for (i, l) in g.labels().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&l.0.to_string());
    }
    s.push_str("],\"edges\":[");
    for (i, (u, v)) in g.edges().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{u},{v}]"));
    }
    s.push_str("]}");
    s
}

/// Parses a graph from a JSON string.
///
/// # Errors
/// Returns a [`ParseError`] if the JSON is malformed or violates graph
/// invariants (out-of-range endpoints, self loops, duplicate edges).
pub fn graph_from_json(s: &str) -> Result<Graph, ParseError> {
    let mut p = Parser::new(s);
    let g = p.graph()?;
    p.end()?;
    Ok(g)
}

/// Parses one graph object from the *front* of `s`, returning the graph
/// and the number of bytes consumed. Trailing input is left for the
/// caller — this is the hook grammars embedding graph objects (such as
/// the `ged-server` wire protocol) use to delegate graph payloads to this
/// codec.
///
/// # Errors
/// Returns a [`ParseError`] (positions relative to `s`) if the prefix is
/// not a valid graph object.
pub fn graph_from_json_prefix(s: &str) -> Result<(Graph, usize), ParseError> {
    let mut p = Parser::new(s);
    let g = p.graph()?;
    Ok((g, p.pos))
}

/// Serializes a dataset to a JSON string. Graphs are written in id
/// order; [`crate::store::GraphId`]s themselves are process-local handles
/// and are not persisted (loading mints fresh ids).
#[must_use]
pub fn dataset_to_json(ds: &GraphDataset) -> String {
    let mut s = format!("{{\"kind\":\"{}\",\"graphs\":[", ds.kind.name());
    for (i, g) in ds.graphs().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&graph_to_json(g));
    }
    s.push_str("]}");
    s
}

/// Parses a dataset from a JSON string.
///
/// # Errors
/// Returns a [`ParseError`] if the JSON is malformed or any graph is
/// invalid.
pub fn dataset_from_json(s: &str) -> Result<GraphDataset, ParseError> {
    let mut p = Parser::new(s);
    let ds = p.dataset()?;
    p.end()?;
    Ok(ds)
}

/// Writes a dataset to a JSON file.
///
/// # Errors
/// Propagates I/O errors.
pub fn save_dataset(ds: &GraphDataset, path: &Path) -> io::Result<()> {
    fs::write(path, dataset_to_json(ds))
}

/// Reads a dataset from a JSON file.
///
/// # Errors
/// Propagates I/O errors and reports malformed JSON.
pub fn load_dataset(path: &Path) -> io::Result<GraphDataset> {
    let s = fs::read_to_string(path)?;
    dataset_from_json(&s).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Replaces the file at `path` with `bytes` atomically: the bytes go to a
/// fresh temporary file in the same directory, which is synced and then
/// renamed over `path`, and the directory is synced so the rename is
/// durable. A reader (or a crash) sees either the old file or the new
/// one, never a partial write. When the write or the rename fails, the
/// temporary file is removed and any previous file at `path` is left
/// untouched.
///
/// # Errors
/// Propagates I/O errors; a `path` without a file name (`/`, `..`) is
/// [`io::ErrorKind::InvalidInput`], and a `path` naming a directory fails
/// at the rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    // Unique per process and per call, so concurrent saves never share a
    // temporary file.
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        name.to_string_lossy(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let written = fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if let Err(e) = written {
        fs::remove_file(&tmp).ok();
        return Err(e);
    }
    fs::File::open(dir)?.sync_all()
}

/// Recursive-descent parser for the fixed graph/dataset grammar above.
/// `pub(crate)` so the sharded-store snapshot codec ([`crate::shard`])
/// can layer its grammar on the same primitives.
pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    /// Builds a [`ParseError`] at byte `at`, deriving line/column from the
    /// input prefix. Error paths only, so the O(at) scan is fine.
    pub(crate) fn err(&self, at: usize, kind: ParseErrorKind) -> ParseError {
        let mut line = 1;
        let mut line_start = 0;
        for (i, &b) in self.bytes[..at.min(self.bytes.len())].iter().enumerate() {
            if b == b'\n' {
                line += 1;
                line_start = i + 1;
            }
        }
        ParseError {
            at,
            line,
            column: at - line_start + 1,
            kind,
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    pub(crate) fn expect(&mut self, token: &'static str) -> Result<(), ParseError> {
        self.skip_ws();
        let end = self.pos + token.len();
        if end <= self.bytes.len() && &self.bytes[self.pos..end] == token.as_bytes() {
            self.pos = end;
            Ok(())
        } else {
            Err(self.err(self.pos, ParseErrorKind::Expected(token)))
        }
    }

    pub(crate) fn peek_is(&mut self, byte: u8) -> bool {
        self.skip_ws();
        self.bytes.get(self.pos) == Some(&byte)
    }

    fn u32(&mut self) -> Result<u32, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err(start, ParseErrorKind::ExpectedNumber));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are valid UTF-8")
            .parse::<u32>()
            .map_err(|_| self.err(start, ParseErrorKind::NumberOverflow))
    }

    /// The snapshot grammar's integer width (sequence numbers, revisions).
    pub(crate) fn u64(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err(start, ParseErrorKind::ExpectedNumber));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are valid UTF-8")
            .parse::<u64>()
            .map_err(|_| self.err(start, ParseErrorKind::NumberOverflow))
    }

    /// `[item, item, ...]` with `item` produced by `f`.
    pub(crate) fn list<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.expect("[")?;
        let mut out = Vec::new();
        if self.peek_is(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(f(self)?);
            if self.peek_is(b',') {
                self.pos += 1;
            } else {
                self.expect("]")?;
                return Ok(out);
            }
        }
    }

    pub(crate) fn graph(&mut self) -> Result<Graph, ParseError> {
        self.expect("{")?;
        self.expect("\"labels\"")?;
        self.expect(":")?;
        let labels: Vec<Label> = self.list(|p| p.u32().map(Label))?;
        self.expect(",")?;
        self.expect("\"edges\"")?;
        self.expect(":")?;
        let n = labels.len() as u32;
        let mut seen = std::collections::HashSet::new();
        let edges = self.list(|p| {
            let at = {
                p.skip_ws();
                p.pos
            };
            p.expect("[")?;
            let u = p.u32()?;
            p.expect(",")?;
            let v = p.u32()?;
            p.expect("]")?;
            if u == v {
                return Err(p.err(at, ParseErrorKind::SelfLoop(u)));
            }
            if u >= n || v >= n {
                return Err(p.err(
                    at,
                    ParseErrorKind::EdgeOutOfRange {
                        edge: (u, v),
                        nodes: n,
                    },
                ));
            }
            if !seen.insert((u.min(v), u.max(v))) {
                return Err(p.err(at, ParseErrorKind::DuplicateEdge(u, v)));
            }
            Ok((u, v))
        })?;
        self.expect("}")?;
        Ok(Graph::from_edges(labels, &edges))
    }

    fn dataset(&mut self) -> Result<GraphDataset, ParseError> {
        self.expect("{")?;
        self.expect("\"kind\"")?;
        self.expect(":")?;
        let kind = if self.expect("\"AIDS\"").is_ok() {
            DatasetKind::Aids
        } else if self.expect("\"Linux\"").is_ok() {
            DatasetKind::Linux
        } else if self.expect("\"IMDB\"").is_ok() {
            DatasetKind::Imdb
        } else {
            return Err(self.err(self.pos, ParseErrorKind::UnknownKind));
        };
        self.expect(",")?;
        self.expect("\"graphs\"")?;
        self.expect(":")?;
        let graphs = self.list(Self::graph)?;
        self.expect("}")?;
        Ok(GraphDataset::from_graphs(kind, graphs))
    }

    pub(crate) fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err(self.pos, ParseErrorKind::TrailingInput))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::GraphDataset;
    use crate::graph::Label;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn graph_json_roundtrip() {
        let g = Graph::from_edges(vec![Label(1), Label(2), Label(3)], &[(0, 1), (1, 2)]);
        let s = graph_to_json(&g);
        let g2 = graph_from_json(&s).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::new();
        assert_eq!(graph_from_json(&graph_to_json(&g)).unwrap(), g);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            graph_from_json("not json").unwrap_err().kind,
            ParseErrorKind::Expected("{")
        );
        assert_eq!(
            graph_from_json("{\"labels\":[0,0]}").unwrap_err().kind,
            ParseErrorKind::Expected(",")
        );
        assert_eq!(
            graph_from_json("{\"labels\":[0],\"edges\":[]} tail")
                .unwrap_err()
                .kind,
            ParseErrorKind::TrailingInput
        );
        assert_eq!(
            graph_from_json("{\"labels\":[99999999999],\"edges\":[]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::NumberOverflow
        );
        assert_eq!(
            dataset_from_json("{\"kind\":\"QM9\",\"graphs\":[]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::UnknownKind
        );
    }

    #[test]
    fn rejects_invariant_violations() {
        assert_eq!(
            graph_from_json("{\"labels\":[0,0],\"edges\":[[1,1]]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::SelfLoop(1)
        );
        assert_eq!(
            graph_from_json("{\"labels\":[0,0],\"edges\":[[0,2]]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::EdgeOutOfRange {
                edge: (0, 2),
                nodes: 2
            }
        );
        // Duplicate, also when reversed.
        assert_eq!(
            graph_from_json("{\"labels\":[0,0],\"edges\":[[0,1],[1,0]]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::DuplicateEdge(1, 0)
        );
    }

    #[test]
    fn errors_carry_position() {
        // The bad number starts at byte 11 of line 2.
        let e = graph_from_json("{\"labels\":\n[0],\"edges\":[[0,x]]}").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::ExpectedNumber);
        assert_eq!(e.line, 2);
        assert_eq!(e.column, e.at - "{\"labels\":\n".len() + 1);
        let msg = e.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("expected a number"), "{msg}");

        // Single-line inputs report line 1 and column = byte + 1.
        let e = graph_from_json("nope").unwrap_err();
        assert_eq!((e.line, e.column, e.at), (1, 1, 0));
    }

    #[test]
    fn dataset_file_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(3);
        let ds = GraphDataset::linux_like(10, &mut rng);
        let dir = std::env::temp_dir().join("ot_ged_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        save_dataset(&ds, &path).unwrap();
        let ds2 = load_dataset(&path).unwrap();
        assert_eq!(ds.kind, ds2.kind);
        assert_eq!(ds.len(), ds2.len());
        assert!(ds.graphs().eq(ds2.graphs()), "graphs round-trip in order");
        std::fs::remove_file(&path).ok();
    }
}
