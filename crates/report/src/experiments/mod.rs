//! One module per paper table/figure. See `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured notes.

pub mod ablation;
pub mod common;
pub mod ext_distributed;
pub mod ext_hetero;
pub mod ext_multinode;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;

use crate::ExperimentOutput;

/// Fidelity of simulator-backed experiments: `Quick` uses small scaled
/// graphs (CI-friendly), `Full` uses larger twins for smoother curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Small graphs, coarse sweeps (seconds).
    Quick,
    /// Larger graphs, fine sweeps (minutes).
    Full,
}

/// Every reproducible experiment, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table I — dataset catalog.
    Table1,
    /// Fig. 2 — SpMM-share contours over scale x density (CPU).
    Fig2,
    /// Fig. 3 — CPU execution-time breakdown.
    Fig3,
    /// Fig. 4 — GPU execution-time breakdown.
    Fig4,
    /// Fig. 5 — SpMM variants vs bandwidth model on PIUMA.
    Fig5,
    /// Fig. 6 — bandwidth and latency sensitivity on PIUMA.
    Fig6,
    /// Fig. 7 — threads-per-MTP latency tolerance on PIUMA.
    Fig7,
    /// Fig. 8 — PIUMA vs CPU strong scaling on `products`.
    Fig8,
    /// Fig. 9 — GCN / SpMM speedups vs the CPU baseline.
    Fig9,
    /// Fig. 10 — PIUMA execution-time breakdown.
    Fig10,
    /// Extension — multi-node PIUMA scaling over optical links.
    ExtMultinode,
    /// Extension — Section VI heterogeneous-SoC design sweep.
    ExtHetero,
    /// Extension — distributed CPU (MPI) vs PIUMA DGAS scaling.
    ExtDistributed,
    /// Ablations of the simulator's design choices.
    Ablation,
}

impl Experiment {
    /// All experiments in paper order, extensions last.
    pub const ALL: [Experiment; 14] = [
        Experiment::Table1,
        Experiment::Fig2,
        Experiment::Fig3,
        Experiment::Fig4,
        Experiment::Fig5,
        Experiment::Fig6,
        Experiment::Fig7,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::ExtMultinode,
        Experiment::ExtHetero,
        Experiment::ExtDistributed,
        Experiment::Ablation,
    ];

    /// Looks an experiment up by id (`"table1"`, `"fig5"`, ...).
    pub fn from_name(name: &str) -> Option<Experiment> {
        Experiment::ALL
            .iter()
            .copied()
            .find(|e| e.name() == name.to_ascii_lowercase())
    }

    /// The experiment's id.
    pub fn name(&self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Fig2 => "fig2",
            Experiment::Fig3 => "fig3",
            Experiment::Fig4 => "fig4",
            Experiment::Fig5 => "fig5",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::ExtMultinode => "ext_multinode",
            Experiment::ExtHetero => "ext_hetero",
            Experiment::ExtDistributed => "ext_distributed",
            Experiment::Ablation => "ablation",
        }
    }

    /// Runs the experiment at the given fidelity.
    pub fn run(&self, fidelity: Fidelity) -> ExperimentOutput {
        match self {
            Experiment::Table1 => table1::run(),
            Experiment::Fig2 => fig2::run(),
            Experiment::Fig3 => fig3::run(),
            Experiment::Fig4 => fig4::run(),
            Experiment::Fig5 => fig5::run(fidelity),
            Experiment::Fig6 => fig6::run(fidelity),
            Experiment::Fig7 => fig7::run(fidelity),
            Experiment::Fig8 => fig8::run(fidelity),
            Experiment::Fig9 => fig9::run(),
            Experiment::Fig10 => fig10::run(fidelity),
            Experiment::ExtMultinode => ext_multinode::run(fidelity),
            Experiment::ExtHetero => ext_hetero::run(),
            Experiment::ExtDistributed => ext_distributed::run(),
            Experiment::Ablation => ablation::run(fidelity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::from_name(e.name()), Some(e));
        }
        assert_eq!(Experiment::from_name("FIG5"), Some(Experiment::Fig5));
        assert_eq!(Experiment::from_name("nope"), None);
    }
}
