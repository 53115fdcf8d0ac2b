//! The loaders' one armed test, in a binary of its own: fault arming is
//! process-global, so an armed `graph.io.` prefix here cannot reach the
//! library's un-armed loader tests.

use graph::io::{read_edge_list, read_matrix_market, GraphError};
use std::io::Cursor;

#[test]
fn injected_faults_surface_as_typed_errors() {
    use resilience::fault::{self, FaultConfig, FaultKind};
    let _armed = fault::arm(FaultConfig::new(1).point("graph.io.", FaultKind::Error, 1.0));
    let err = read_edge_list(Cursor::new("0 1\n"), None).unwrap_err();
    assert!(matches!(
        err,
        GraphError::Fault {
            site: "graph.io.edge_list"
        }
    ));
    let err = read_matrix_market(Cursor::new(
        "%%MatrixMarket matrix coordinate real general\n",
    ))
    .unwrap_err();
    assert!(matches!(err, GraphError::Fault { .. }));
}
