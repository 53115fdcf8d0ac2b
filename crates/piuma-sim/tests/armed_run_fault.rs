//! The simulator's one armed test, in a binary of its own: fault arming is
//! process-global, so an armed `sim.run` here cannot reach the library's
//! un-armed simulator tests.

use piuma_sim::program::VecProgram;
use piuma_sim::{MachineConfig, Op, OpTag, SimError, Simulator, ThreadSpec};

fn load_program(n: usize) -> Vec<Op> {
    vec![
        Op::Load {
            slice: 0,
            bytes: 64.0,
            tag: OpTag::FeatureRead,
        };
        n
    ]
}

#[test]
fn armed_sim_run_fault_surfaces_as_typed_error() {
    use resilience::fault::{self, FaultConfig, FaultKind};
    let _armed = fault::arm(FaultConfig::new(3).point("sim.run", FaultKind::Error, 1.0));
    let err = Simulator::new(MachineConfig::single_core())
        .run(vec![ThreadSpec::on_core(
            0,
            Box::new(VecProgram::new(load_program(4))),
        )])
        .unwrap_err();
    assert_eq!(err, SimError::Fault { site: "sim.run" });
}
