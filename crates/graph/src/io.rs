//! Graph serialization: whitespace edge lists (read) and Matrix Market
//! files (read and write).
//!
//! OGB distributes graphs as edge lists and the sparse-matrix community
//! uses Matrix Market; supporting both lets users feed *real* datasets to
//! the kernels and the simulator instead of the synthetic twins.

use crate::graph_type::Graph;
use sparse::{Coo, Csr, SparseError};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Error produced by the graph readers.
///
/// Every malformed input — garbage bytes, out-of-bounds indices, files
/// truncated mid-entry — comes back as a typed variant; the loaders never
/// panic on untrusted data.
#[derive(Debug)]
pub enum GraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The Matrix Market header was missing or unsupported.
    BadHeader {
        /// The offending header line.
        header: String,
    },
    /// An entry's coordinates exceed the declared matrix/graph shape.
    IndexOutOfBounds {
        /// 1-based line number of the offending entry (0 if unknown).
        line: usize,
        /// The offending row (or source-vertex) index, 0-based.
        row: usize,
        /// The offending column (or target-vertex) index, 0-based.
        col: usize,
        /// Declared shape as `(rows, cols)`.
        shape: (usize, usize),
    },
    /// The file ended before the declared number of entries was read.
    Truncated {
        /// Entries the size line promised.
        expected: usize,
        /// Entries actually present.
        found: usize,
    },
    /// The assembled matrix failed a structural validity check.
    Invalid(SparseError),
    /// An injected fault from the resilience layer (testing only).
    Fault {
        /// The fault-point site name.
        site: &'static str,
    },
}

/// Former name of [`GraphError`], kept for source compatibility.
pub type ReadError = GraphError;

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::BadHeader { header } => {
                write!(f, "unsupported matrix market header: {header}")
            }
            GraphError::IndexOutOfBounds {
                line,
                row,
                col,
                shape,
            } => write!(
                f,
                "entry ({row}, {col}) on line {line} exceeds declared shape {}x{}",
                shape.0, shape.1
            ),
            GraphError::Truncated { expected, found } => write!(
                f,
                "file truncated: size line declares {expected} entries, found {found}"
            ),
            GraphError::Invalid(e) => write!(f, "invalid matrix structure: {e}"),
            GraphError::Fault { site } => write!(f, "injected fault at `{site}`"),
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

impl From<SparseError> for GraphError {
    fn from(e: SparseError) -> Self {
        GraphError::Invalid(e)
    }
}

/// Preallocation cap for the declared-nnz hint: a hostile size line like
/// `1 1 99999999999` must not commit gigabytes before the first entry is
/// parsed. Beyond this the triplet buffers grow geometrically as usual.
const MAX_NNZ_PREALLOC: usize = 1 << 20;

/// Reads a whitespace-separated edge list (`u v` per line, `#` comments).
/// Vertex count is `max id + 1` unless `vertices` pins it.
///
/// # Errors
///
/// Returns [`ReadError`] on malformed lines or underlying I/O failures.
pub fn read_edge_list<R: BufRead>(reader: R, vertices: Option<usize>) -> Result<Graph, GraphError> {
    resilience::fault_point_err!(
        "graph.io.edge_list",
        GraphError::Fault {
            site: "graph.io.edge_list",
        }
    );
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut max_id = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<usize, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: idx + 1,
                message: format!("missing {what}"),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: idx + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let u = parse(it.next(), "source vertex")?;
        let v = parse(it.next(), "target vertex")?;
        if let Some(n) = vertices {
            if u >= n || v >= n {
                return Err(GraphError::IndexOutOfBounds {
                    line: idx + 1,
                    row: u,
                    col: v,
                    shape: (n, n),
                });
            }
        }
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = vertices.unwrap_or(if edges.is_empty() { 0 } else { max_id + 1 });
    Ok(Graph::from_directed_edges(n, &edges))
}

/// Reads a Matrix Market `coordinate` file into a CSR matrix. Supports the
/// `general` and `symmetric` qualifiers with `real`, `integer` or `pattern`
/// values (pattern entries get weight 1).
///
/// The loader treats its input as untrusted: out-of-bounds indices come
/// back as [`GraphError::IndexOutOfBounds`] with the offending line, a file
/// that ends before the declared entry count is [`GraphError::Truncated`],
/// non-finite values are rejected, and a hostile size line cannot force a
/// huge up-front allocation.
///
/// # Errors
///
/// Returns [`GraphError`] on malformed headers/lines, out-of-bounds or
/// non-finite entries, truncated files, or I/O failures.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Csr, GraphError> {
    resilience::fault_point_err!(
        "graph.io.matrix_market",
        GraphError::Fault {
            site: "graph.io.matrix_market",
        }
    );
    let mut lines = reader.lines().enumerate();

    // Header line: %%MatrixMarket matrix coordinate <field> <symmetry>
    let (_, header) = lines.next().ok_or_else(|| GraphError::BadHeader {
        header: "<empty file>".to_string(),
    })?;
    let header = header?;
    let lower = header.to_ascii_lowercase();
    let tokens: Vec<&str> = lower.split_whitespace().collect();
    if tokens.len() < 5
        || tokens[0] != "%%matrixmarket"
        || tokens[1] != "matrix"
        || tokens[2] != "coordinate"
    {
        return Err(GraphError::BadHeader { header });
    }
    let pattern = tokens[3] == "pattern";
    let symmetric = tokens[4] == "symmetric";
    if !matches!(tokens[3], "real" | "integer" | "pattern")
        || !matches!(tokens[4], "general" | "symmetric")
    {
        return Err(GraphError::BadHeader { header });
    }

    // Size line (after comments), then entries.
    let mut coo: Option<Coo> = None;
    let mut declared_nnz = 0usize;
    let mut parsed_entries = 0usize;
    for (idx, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        let parse_usize = |s: &str, what: &str| -> Result<usize, GraphError> {
            s.parse().map_err(|e| GraphError::Parse {
                line: idx + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        match &mut coo {
            None => {
                if fields.len() != 3 {
                    return Err(GraphError::Parse {
                        line: idx + 1,
                        message: "size line must have 3 fields".to_string(),
                    });
                }
                let rows = parse_usize(fields[0], "row count")?;
                let cols = parse_usize(fields[1], "column count")?;
                declared_nnz = parse_usize(fields[2], "nnz count")?;
                coo = Some(Coo::with_capacity(
                    rows,
                    cols,
                    declared_nnz.min(MAX_NNZ_PREALLOC),
                ));
            }
            Some(coo) => {
                if parsed_entries == declared_nnz {
                    return Err(GraphError::Parse {
                        line: idx + 1,
                        message: format!("more entries than the declared nnz {declared_nnz}"),
                    });
                }
                let expected = if pattern { 2 } else { 3 };
                if fields.len() < expected {
                    return Err(GraphError::Parse {
                        line: idx + 1,
                        message: format!("entry needs {expected} fields"),
                    });
                }
                // Matrix Market is 1-indexed.
                let r = parse_usize(fields[0], "row index")?;
                let c = parse_usize(fields[1], "column index")?;
                if r == 0 || c == 0 {
                    return Err(GraphError::Parse {
                        line: idx + 1,
                        message: "indices are 1-based".to_string(),
                    });
                }
                let value: f32 = if pattern {
                    1.0
                } else {
                    fields[2].parse().map_err(|e| GraphError::Parse {
                        line: idx + 1,
                        message: format!("bad value: {e}"),
                    })?
                };
                if !value.is_finite() {
                    return Err(GraphError::Parse {
                        line: idx + 1,
                        message: format!("non-finite value {value}"),
                    });
                }
                let oob =
                    |row: usize, col: usize, shape: (usize, usize)| GraphError::IndexOutOfBounds {
                        line: idx + 1,
                        row,
                        col,
                        shape,
                    };
                coo.try_push(r - 1, c - 1, value)
                    .map_err(|_| oob(r - 1, c - 1, (coo.nrows(), coo.ncols())))?;
                if symmetric && r != c {
                    coo.try_push(c - 1, r - 1, value)
                        .map_err(|_| oob(c - 1, r - 1, (coo.nrows(), coo.ncols())))?;
                }
                parsed_entries += 1;
            }
        }
    }
    let coo = coo.ok_or(GraphError::BadHeader {
        header: "missing size line".to_string(),
    })?;
    if parsed_entries < declared_nnz {
        return Err(GraphError::Truncated {
            expected: declared_nnz,
            found: parsed_entries,
        });
    }
    let csr = Csr::from_coo(&coo);
    csr.validate()?;
    Ok(csr)
}

/// Writes a CSR matrix as Matrix Market `coordinate real general`.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_matrix_market<W: Write>(csr: &Csr, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "{} {} {}", csr.nrows(), csr.ncols(), csr.nnz())?;
    for (r, c, v) in csr.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn edge_list_round_trips() {
        let g = Graph::from_directed_edges(4, &[(0, 1), (2, 3), (3, 0)]);
        let back = read_edge_list(Cursor::new("0 1\n2 3\n3 0\n"), Some(4)).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn edge_list_skips_comments_and_infers_size() {
        let text = "# a comment\n0 1\n\n5 2\n";
        let g = read_edge_list(Cursor::new(text), None).unwrap();
        assert_eq!(g.vertices(), 6);
        assert_eq!(g.edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list(Cursor::new("0 x\n"), None).unwrap_err();
        assert!(matches!(err, ReadError::Parse { line: 1, .. }));
        let err = read_edge_list(Cursor::new("7\n"), None).unwrap_err();
        assert!(matches!(err, ReadError::Parse { .. }));
    }

    #[test]
    fn edge_list_rejects_edges_beyond_declared_size() {
        let err = read_edge_list(Cursor::new("0 9\n"), Some(3)).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn matrix_market_round_trips() {
        let mut coo = Coo::new(3, 4);
        coo.push(0, 1, 1.5);
        coo.push(2, 3, -2.0);
        let csr = Csr::from_coo(&coo);
        let mut buf = Vec::new();
        write_matrix_market(&csr, &mut buf).unwrap();
        let back = read_matrix_market(Cursor::new(buf)).unwrap();
        assert_eq!(back, csr);
    }

    #[test]
    fn matrix_market_symmetric_mirrors_entries() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment\n\
                    3 3 2\n\
                    2 1 5.0\n\
                    3 3 1.0\n";
        let csr = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(csr.get(1, 0), Some(5.0));
        assert_eq!(csr.get(0, 1), Some(5.0));
        assert_eq!(csr.get(2, 2), Some(1.0));
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn matrix_market_pattern_defaults_to_one() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        let csr = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(csr.get(0, 1), Some(1.0));
    }

    #[test]
    fn matrix_market_rejects_bad_header() {
        let err = read_matrix_market(Cursor::new("%%MatrixMarket matrix array real general\n"))
            .unwrap_err();
        assert!(matches!(err, ReadError::BadHeader { .. }));
        let err = read_matrix_market(Cursor::new("hello\n")).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader { .. }));
    }

    #[test]
    fn matrix_market_rejects_zero_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 3.0\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("1-based"));
    }

    #[test]
    fn matrix_market_out_of_bounds_column_is_a_typed_error() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 7 3.0\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(
            err,
            GraphError::IndexOutOfBounds {
                line: 3,
                row: 0,
                col: 6,
                shape: (2, 2)
            }
        ));
    }

    #[test]
    fn matrix_market_truncated_file_is_a_typed_error() {
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n2 2 1.0\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(
            err,
            GraphError::Truncated {
                expected: 5,
                found: 2
            }
        ));
    }

    #[test]
    fn matrix_market_extra_entries_are_rejected() {
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1.0\n2 2 1.0\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("more entries"));
    }

    #[test]
    fn matrix_market_rejects_non_finite_values() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("non-finite"));
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 inf\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn hostile_size_line_does_not_preallocate() {
        // Declares an absurd nnz; must fail with Truncated, not OOM.
        let text = format!(
            "%%MatrixMarket matrix coordinate real general\n2 2 {}\n1 1 1.0\n",
            usize::MAX
        );
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::Truncated { found: 1, .. }));
    }

    #[test]
    fn edge_list_out_of_bounds_reports_the_line() {
        let err = read_edge_list(Cursor::new("0 1\n0 9\n"), Some(3)).unwrap_err();
        assert!(matches!(
            err,
            GraphError::IndexOutOfBounds {
                line: 2,
                row: 0,
                col: 9,
                shape: (3, 3)
            }
        ));
    }
}
