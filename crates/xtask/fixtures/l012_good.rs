//! L012 good: the fault point precedes every exchange-buffer write, so
//! chaos injection provably covers the copy path.

/// Copies a row into the stage buffer behind a chaos-injection site.
pub fn gather(stage: &mut Block, src: &Block) {
    resilience::fault_point!("fixture.exchange");
    stage.resize_for_overwrite(1, 4);
    stage.row_mut(0).copy_from_slice(src.row(0));
}
