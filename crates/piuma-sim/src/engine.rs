//! The discrete-event execution engine.

use crate::config::MachineConfig;
use crate::program::{Op, OpTag, Program};
use crate::resources::{BandwidthResource, FifoResource};
use crate::stats::{SimResult, TagStats};
use resilience::guard::{RunGuard, RunOutcome, StopReason};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::error::Error;
use std::fmt;

/// How often (in processed events) a guarded run polls its [`RunGuard`].
/// Power of two so the check compiles to a mask test.
const GUARD_CHECK_EVENTS: u64 = 1024;

/// Error produced when a simulation cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No threads were supplied.
    NoThreads,
    /// A thread was placed on a core outside the machine.
    BadCore {
        /// The offending core index.
        core: usize,
        /// Cores available.
        cores: usize,
    },
    /// A program referenced a DRAM slice outside the machine.
    BadSlice {
        /// The offending slice index.
        slice: usize,
        /// Slices available.
        slices: usize,
    },
    /// An injected fault from the resilience layer (testing only).
    Fault {
        /// The fault-point site name.
        site: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoThreads => write!(f, "simulation requires at least one thread"),
            SimError::BadCore { core, cores } => {
                write!(
                    f,
                    "thread placed on core {core} but machine has {cores} cores"
                )
            }
            SimError::BadSlice { slice, slices } => {
                write!(f, "access to slice {slice} but machine has {slices} slices")
            }
            SimError::Fault { site } => write!(f, "injected fault at `{site}`"),
        }
    }
}

impl Error for SimError {}

/// Placement of one simulated thread: which core it runs on and the program
/// it executes. Threads of a core are assigned round-robin to its MTPs.
pub struct ThreadSpec {
    /// Core hosting the thread.
    pub core: usize,
    /// The instruction stream.
    pub program: Box<dyn Program>,
}

impl ThreadSpec {
    /// Places `program` on `core`.
    pub fn on_core(core: usize, program: Box<dyn Program>) -> Self {
        ThreadSpec { core, program }
    }
}

impl fmt::Debug for ThreadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadSpec")
            .field("core", &self.core)
            .finish_non_exhaustive()
    }
}

/// Orderable f64 key for the event heap (times are always finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

struct ThreadState {
    core: usize,
    mtp: usize,    // global MTP index
    engine: usize, // global DMA engine index
    program: Box<dyn Program>,
    ready: f64,
    dma_inflight: VecDeque<f64>,
}

/// The PIUMA discrete-event simulator.
///
/// Construct with a [`MachineConfig`], then [`Simulator::run`] a set of
/// [`ThreadSpec`]s to completion. See the crate-level docs for the model.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
}

impl Simulator {
    /// Creates a simulator for the given machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::assert_valid`]).
    pub fn new(config: MachineConfig) -> Self {
        config.assert_valid();
        Simulator { config }
    }

    /// The machine being simulated.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs the supplied threads to completion and reports timing/traffic.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoThreads`] for an empty thread list,
    /// [`SimError::BadCore`] for a misplaced thread, and
    /// [`SimError::BadSlice`] if a program addresses a slice outside the
    /// machine.
    pub fn run(&self, threads: Vec<ThreadSpec>) -> Result<SimResult, SimError> {
        self.run_traced(threads, 0).map(|(result, _)| result)
    }

    /// Like [`Simulator::run`], but additionally records up to
    /// `max_events` per-operation [`TraceEvent`]s (in execution order) for
    /// timeline inspection and debugging. A limit of 0 disables tracing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_traced(
        &self,
        threads: Vec<ThreadSpec>,
        max_events: usize,
    ) -> Result<(SimResult, Vec<TraceEvent>), SimError> {
        let (result, trace, _) = self.run_inner(threads, max_events, None)?;
        Ok((result, trace))
    }

    /// Like [`Simulator::run`], but polls `guard` every
    /// [`GUARD_CHECK_EVENTS`] processed events: a fired wall-clock budget
    /// or cancellation ends the simulation early with
    /// [`RunOutcome::Partial`] carrying the statistics accumulated so far
    /// (simulated time, traffic, and breakdowns of the events already
    /// executed) instead of running an unbounded event loop to the end.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`]; guard stops are not errors.
    pub fn run_guarded(
        &self,
        threads: Vec<ThreadSpec>,
        guard: &RunGuard,
    ) -> Result<RunOutcome<SimResult>, SimError> {
        let (result, _, stopped) = self.run_inner(threads, 0, Some(guard))?;
        Ok(match stopped {
            None => RunOutcome::Complete(result),
            Some(reason) => RunOutcome::Partial {
                value: result,
                reason,
            },
        })
    }

    fn run_inner(
        &self,
        threads: Vec<ThreadSpec>,
        max_events: usize,
        guard: Option<&RunGuard>,
    ) -> Result<(SimResult, Vec<TraceEvent>, Option<StopReason>), SimError> {
        resilience::fault_point_err!("sim.run", SimError::Fault { site: "sim.run" });
        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut record = |event: TraceEvent| {
            if trace.len() < max_events {
                trace.push(event);
            }
        };
        if threads.is_empty() {
            return Err(SimError::NoThreads);
        }
        let cfg = &self.config;
        let n_slices = cfg.total_slices();
        let n_mtps = cfg.cores * cfg.mtps_per_core;
        let n_engines = cfg.cores * cfg.dma_engines_per_core;

        let mut pipelines: Vec<FifoResource> = (0..n_mtps).map(|_| FifoResource::new()).collect();
        let mut engines: Vec<FifoResource> = (0..n_engines).map(|_| FifoResource::new()).collect();
        let mut dram: Vec<BandwidthResource> = (0..n_slices)
            .map(|_| BandwidthResource::new(cfg.dram_bandwidth_gbps))
            .collect();

        // Round-robin thread placement onto the core's MTPs and engines.
        let mut per_core_count = vec![0usize; cfg.cores];
        let mut states: Vec<ThreadState> = Vec::with_capacity(threads.len());
        for spec in threads {
            if spec.core >= cfg.cores {
                return Err(SimError::BadCore {
                    core: spec.core,
                    cores: cfg.cores,
                });
            }
            let ordinal = per_core_count[spec.core];
            per_core_count[spec.core] += 1;
            states.push(ThreadState {
                core: spec.core,
                mtp: spec.core * cfg.mtps_per_core + ordinal % cfg.mtps_per_core,
                engine: spec.core * cfg.dma_engines_per_core + ordinal % cfg.dma_engines_per_core,
                program: spec.program,
                ready: 0.0,
                dma_inflight: VecDeque::new(),
            });
        }

        let mut breakdown: BTreeMap<OpTag, TagStats> = BTreeMap::new();
        let mut bytes_read = 0.0f64;
        let mut bytes_written = 0.0f64;
        let cycle = cfg.cycle_ns();

        let mut heap: BinaryHeap<Reverse<(TimeKey, usize)>> = (0..states.len())
            .map(|tid| Reverse((TimeKey(0.0), tid)))
            .collect();
        let mut finish_time = 0.0f64;
        let mut thread_finish = vec![0.0f64; states.len()];

        // Global-barrier rendezvous state.
        let mut live_threads = states.len();
        let mut parked: Vec<usize> = Vec::new();
        let mut barrier_horizon = 0.0f64;

        let mut events: u64 = 0;
        let mut stopped: Option<StopReason> = None;

        while let Some(Reverse((TimeKey(now), tid))) = heap.pop() {
            // Poll before counting so a zero-budget guard stops ahead of the
            // first event even in sims far smaller than the check interval.
            if events & (GUARD_CHECK_EVENTS - 1) == 0 {
                if let Some(g) = guard {
                    if let Some(reason) = g.should_stop() {
                        stopped = Some(reason);
                        break;
                    }
                }
            }
            events += 1;
            resilience::fault_point!("sim.event");
            let st = &mut states[tid];
            debug_assert_eq!(st.ready, now);
            let Some(op) = st.program.next_op() else {
                // Thread done; drain its outstanding DMA transfers into the
                // finish time.
                let last_dma = st.dma_inflight.iter().copied().fold(0.0, f64::max);
                thread_finish[tid] = st.ready.max(last_dma);
                finish_time = finish_time.max(thread_finish[tid]);
                live_threads -= 1;
                // A finished thread never reaches the barrier: release the
                // waiters if it was the last straggler.
                if !parked.is_empty() && parked.len() == live_threads {
                    release_barrier(&mut parked, &mut heap, &mut states, barrier_horizon, cfg);
                    barrier_horizon = 0.0;
                }
                continue;
            };

            match op {
                Op::Compute { cycles } => {
                    let (_, end) = pipelines[st.mtp].acquire(st.ready, cycles * cycle);
                    let entry = breakdown.entry(OpTag::Compute).or_default();
                    entry.count += 1;
                    entry.time_ns += end - st.ready;
                    record(TraceEvent {
                        thread: tid,
                        kind: "compute",
                        tag: OpTag::Compute,
                        start_ns: st.ready,
                        end_ns: end,
                    });
                    st.ready = end;
                }
                Op::Load { slice, bytes, tag } => {
                    check_slice(slice, n_slices)?;
                    // Single-instruction issue: round-robin interleaves with
                    // other threads' work instead of queueing behind it.
                    let issued = st.ready + cycle;
                    pipelines[st.mtp].note_busy(cycle);
                    let (_, served) = dram[slice].transfer(issued, bytes);
                    let done =
                        served + cfg.dram_latency_ns + cfg.network_latency_ns(st.core, slice);
                    let entry = breakdown.entry(tag).or_default();
                    entry.count += 1;
                    entry.bytes += bytes;
                    entry.time_ns += done - st.ready;
                    bytes_read += bytes;
                    record(TraceEvent {
                        thread: tid,
                        kind: "load",
                        tag,
                        start_ns: now,
                        end_ns: done,
                    });
                    st.ready = done;
                }
                Op::Store { slice, bytes, tag } => {
                    check_slice(slice, n_slices)?;
                    let issued = st.ready + cycle;
                    pipelines[st.mtp].note_busy(cycle);
                    let (_, served) = dram[slice].transfer(issued, bytes);
                    finish_time = finish_time.max(served + cfg.dram_latency_ns);
                    let entry = breakdown.entry(tag).or_default();
                    entry.count += 1;
                    entry.bytes += bytes;
                    entry.time_ns += issued - st.ready + cycle;
                    bytes_written += bytes;
                    record(TraceEvent {
                        thread: tid,
                        kind: "store",
                        tag,
                        start_ns: now,
                        end_ns: issued,
                    });
                    st.ready = issued;
                }
                Op::Dma {
                    read_slice,
                    write_slice,
                    bytes,
                    tag,
                } => {
                    if let Some(s) = read_slice {
                        check_slice(s, n_slices)?;
                    }
                    if let Some(s) = write_slice {
                        check_slice(s, n_slices)?;
                    }
                    // Descriptor-window stall: wait for the oldest transfer
                    // if the window is full.
                    let mut ready = st.ready;
                    if st.dma_inflight.len() >= cfg.dma_window {
                        let oldest = st.dma_inflight.pop_front().expect("window is non-empty");
                        ready = ready.max(oldest);
                    }
                    // Descriptor-queue backpressure: the writer stalls while
                    // the engine's queued work exceeds several credits'
                    // worth. This keeps the engine's clock from running far
                    // ahead of the thread's (which would let transfers
                    // reserve slice bandwidth deep in the future) while
                    // still absorbing bursts of large descriptors.
                    ready = ready.max(engines[st.engine].next_free() - cfg.dma_backlog_ns);
                    for s in [read_slice, write_slice].into_iter().flatten() {
                        ready = ready.max(dram[s].fifo().next_free() - cfg.dma_backlog_ns);
                    }
                    // One pipeline cycle writes the descriptor.
                    let issued = ready + cycle;
                    pipelines[st.mtp].note_busy(cycle);
                    // Engine serializes request issue; completions overlap.
                    let occupancy = cfg.dma_issue_ns.max(bytes / cfg.dma_engine_gbps);
                    let (_, engine_free) = engines[st.engine].acquire(issued, occupancy);
                    let engine_core = st.engine / cfg.dma_engines_per_core;
                    // Both sides reserve their slice at engine-issue time:
                    // reserving the write after the read's completion would
                    // park a phantom future reservation on the write slice
                    // and stall every gate that polls it. The copy chaining
                    // is preserved in the completion time instead.
                    let mut done = engine_free;
                    if let Some(s) = read_slice {
                        let (_, served) = dram[s].transfer(engine_free, bytes);
                        done = done.max(
                            served + cfg.dram_latency_ns + cfg.network_latency_ns(engine_core, s),
                        );
                        bytes_read += bytes;
                    }
                    if let Some(s) = write_slice {
                        let (_, served) = dram[s].transfer(engine_free, bytes);
                        done = done.max(
                            served + cfg.dram_latency_ns + cfg.network_latency_ns(engine_core, s),
                        );
                        bytes_written += bytes;
                    }
                    if read_slice.is_some() && write_slice.is_some() {
                        // A copy's write physically follows its read.
                        done += cfg.dram_latency_ns;
                    }
                    st.dma_inflight.push_back(done);
                    let entry = breakdown.entry(tag).or_default();
                    entry.count += 1;
                    entry.bytes += if read_slice.is_some() || write_slice.is_some() {
                        bytes
                    } else {
                        0.0
                    };
                    // Attribute both the engine occupancy and any
                    // window/backpressure stall the thread paid to this
                    // category — the thread really is waiting on this kind
                    // of transfer.
                    entry.time_ns += occupancy + (ready - st.ready).max(0.0);
                    record(TraceEvent {
                        thread: tid,
                        kind: "dma",
                        tag,
                        start_ns: now,
                        end_ns: done,
                    });
                    st.ready = ready.max(issued);
                }
                Op::DmaWait => {
                    let last = st.dma_inflight.drain(..).fold(0.0, f64::max);
                    let end = st.ready.max(last);
                    record(TraceEvent {
                        thread: tid,
                        kind: "dma_wait",
                        tag: OpTag::Other,
                        start_ns: now,
                        end_ns: end,
                    });
                    st.ready = end;
                }
                Op::Barrier => {
                    barrier_horizon = barrier_horizon.max(st.ready);
                    parked.push(tid);
                    if parked.len() == live_threads {
                        release_barrier(&mut parked, &mut heap, &mut states, barrier_horizon, cfg);
                        barrier_horizon = 0.0;
                    }
                    // Parked: not re-queued until released.
                    continue;
                }
                Op::Atomic { slice, bytes, tag } => {
                    check_slice(slice, n_slices)?;
                    let issued = st.ready + cycle;
                    pipelines[st.mtp].note_busy(cycle);
                    let (_, served) = dram[slice].transfer(issued, bytes);
                    let done = served
                        + cfg.dram_latency_ns
                        + cfg.network_latency_ns(st.core, slice)
                        + cfg.atomic_ns;
                    let entry = breakdown.entry(tag).or_default();
                    entry.count += 1;
                    entry.bytes += bytes;
                    entry.time_ns += done - st.ready;
                    bytes_written += bytes;
                    record(TraceEvent {
                        thread: tid,
                        kind: "atomic",
                        tag,
                        start_ns: now,
                        end_ns: done,
                    });
                    st.ready = done;
                }
            }
            heap.push(Reverse((TimeKey(st.ready), tid)));
        }

        // A guard stop leaves threads mid-program; fold their current
        // positions in so the partial result reflects simulated time so far.
        if stopped.is_some() {
            for st in &states {
                finish_time = finish_time.max(st.ready);
            }
        }

        // Drain: account for channel tails.
        for d in &dram {
            finish_time = finish_time.max(d.fifo().next_free());
        }
        for e in &engines {
            finish_time = finish_time.max(e.next_free());
        }

        let horizon = finish_time.max(f64::MIN_POSITIVE);
        let mean = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
        let dram_util = mean(
            dram.iter().map(|d| d.fifo().utilization(horizon)).sum(),
            dram.len(),
        );
        let dma_util = mean(
            engines.iter().map(|e| e.utilization(horizon)).sum(),
            engines.len(),
        );
        let pipe_util = mean(
            pipelines.iter().map(|p| p.utilization(horizon)).sum(),
            pipelines.len(),
        );

        Ok((
            SimResult {
                total_ns: finish_time,
                bytes_read,
                bytes_written,
                breakdown,
                dram_utilization: dram_util,
                dma_utilization: dma_util,
                pipeline_utilization: pipe_util,
                threads: states.len(),
                thread_finish_ns: thread_finish,
            },
            trace,
            stopped,
        ))
    }
}

/// One recorded operation from [`Simulator::run_traced`]: which thread ran
/// what, and over which interval of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Thread id (index into the `ThreadSpec` list).
    pub thread: usize,
    /// Operation kind: `"compute"`, `"load"`, `"store"`, `"dma"`,
    /// `"dma_wait"`, `"atomic"`.
    pub kind: &'static str,
    /// The stats category the operation was attributed to.
    pub tag: OpTag,
    /// When the thread began the operation (ns).
    pub start_ns: f64,
    /// When the operation's effect completed (ns).
    pub end_ns: f64,
}

/// Releases every thread parked at the global barrier at
/// `horizon + barrier latency`.
fn release_barrier(
    parked: &mut Vec<usize>,
    heap: &mut BinaryHeap<Reverse<(TimeKey, usize)>>,
    states: &mut [ThreadState],
    horizon: f64,
    cfg: &MachineConfig,
) {
    let release = horizon + cfg.barrier_latency_ns();
    for tid in parked.drain(..) {
        states[tid].ready = release;
        heap.push(Reverse((TimeKey(release), tid)));
    }
}

fn check_slice(slice: usize, slices: usize) -> Result<(), SimError> {
    if slice >= slices {
        return Err(SimError::BadSlice { slice, slices });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::VecProgram;
    use resilience::guard::CancelToken;

    fn one_thread(config: MachineConfig, ops: Vec<Op>) -> SimResult {
        Simulator::new(config)
            .run(vec![ThreadSpec::on_core(0, Box::new(VecProgram::new(ops)))])
            .unwrap()
    }

    #[test]
    fn empty_thread_list_is_rejected() {
        let sim = Simulator::new(MachineConfig::single_core());
        assert_eq!(sim.run(vec![]).unwrap_err(), SimError::NoThreads);
    }

    #[test]
    fn misplaced_thread_is_rejected() {
        let sim = Simulator::new(MachineConfig::single_core());
        let err = sim
            .run(vec![ThreadSpec::on_core(
                5,
                Box::new(VecProgram::new(vec![])),
            )])
            .unwrap_err();
        assert!(matches!(err, SimError::BadCore { core: 5, cores: 1 }));
    }

    #[test]
    fn bad_slice_is_rejected() {
        let sim = Simulator::new(MachineConfig::single_core());
        let err = sim
            .run(vec![ThreadSpec::on_core(
                0,
                Box::new(VecProgram::new(vec![Op::Load {
                    slice: 9,
                    bytes: 8.0,
                    tag: OpTag::NnzRead,
                }])),
            )])
            .unwrap_err();
        assert!(matches!(err, SimError::BadSlice { slice: 9, .. }));
    }

    #[test]
    fn single_load_pays_service_plus_latency() {
        let cfg = MachineConfig::single_core();
        let r = one_thread(
            cfg.clone(),
            vec![Op::Load {
                slice: 0,
                bytes: 64.0,
                tag: OpTag::FeatureRead,
            }],
        );
        let expected = cfg.cycle_ns() + 64.0 / cfg.dram_bandwidth_gbps + cfg.dram_latency_ns;
        assert!(
            (r.total_ns - expected).abs() < 1e-9,
            "got {} want {}",
            r.total_ns,
            expected
        );
        assert_eq!(r.bytes_read, 64.0);
    }

    #[test]
    fn blocking_loads_serialize_per_thread() {
        let cfg = MachineConfig::single_core();
        let ops = vec![
            Op::Load {
                slice: 0,
                bytes: 64.0,
                tag: OpTag::FeatureRead,
            };
            10
        ];
        let r = one_thread(cfg.clone(), ops);
        // Each load's latency sits on the critical path: >= 10 * 45 ns.
        assert!(r.total_ns >= 10.0 * cfg.dram_latency_ns);
    }

    #[test]
    fn parallel_threads_overlap_latency() {
        let cfg = MachineConfig::single_core();
        let make_ops = || {
            vec![
                Op::Load {
                    slice: 0,
                    bytes: 8.0,
                    tag: OpTag::NnzRead,
                };
                4
            ]
        };
        let sequential = one_thread(cfg.clone(), {
            let mut v = make_ops();
            v.extend(make_ops());
            v
        });
        let sim = Simulator::new(cfg);
        let parallel = sim
            .run(vec![
                ThreadSpec::on_core(0, Box::new(VecProgram::new(make_ops()))),
                ThreadSpec::on_core(0, Box::new(VecProgram::new(make_ops()))),
            ])
            .unwrap();
        assert!(
            parallel.total_ns < sequential.total_ns * 0.75,
            "multithreading should hide latency: {} vs {}",
            parallel.total_ns,
            sequential.total_ns
        );
    }

    #[test]
    fn dma_transfers_overlap_their_latency() {
        // N DMA reads issued by one thread: issue serializes at the engine,
        // completions overlap, so total << N * latency.
        let cfg = MachineConfig::single_core();
        let n = 32usize;
        let ops: Vec<Op> = (0..n)
            .map(|_| Op::Dma {
                read_slice: Some(0),
                write_slice: None,
                bytes: 64.0,
                tag: OpTag::FeatureRead,
            })
            .chain(std::iter::once(Op::DmaWait))
            .collect();
        let r = one_thread(cfg.clone(), ops);
        let serialized = n as f64 * cfg.dram_latency_ns;
        assert!(
            r.total_ns < serialized * 0.5,
            "DMA should pipeline: {} vs fully serialized {}",
            r.total_ns,
            serialized
        );
        assert_eq!(r.bytes_read, n as f64 * 64.0);
    }

    #[test]
    fn dma_window_limits_runahead() {
        // With a window of 1 the thread must wait for each transfer before
        // issuing the next, re-serializing the latency.
        let mut cfg = MachineConfig::single_core();
        cfg.dma_window = 1;
        let n = 16usize;
        let ops: Vec<Op> = (0..n)
            .map(|_| Op::Dma {
                read_slice: Some(0),
                write_slice: None,
                bytes: 64.0,
                tag: OpTag::FeatureRead,
            })
            .chain(std::iter::once(Op::DmaWait))
            .collect();
        let narrow = one_thread(cfg.clone(), ops.clone());
        cfg.dma_window = 16;
        let wide = one_thread(cfg, ops);
        assert!(
            narrow.total_ns > wide.total_ns * 2.0,
            "window=1 {} should be much slower than window=16 {}",
            narrow.total_ns,
            wide.total_ns
        );
    }

    #[test]
    fn stores_do_not_block_the_thread() {
        let cfg = MachineConfig::single_core();
        let r = one_thread(
            cfg.clone(),
            vec![
                Op::Store {
                    slice: 0,
                    bytes: 1024.0,
                    tag: OpTag::OutputWrite,
                },
                Op::Compute { cycles: 1.0 },
            ],
        );
        // The store's DRAM latency still shows up in the drain time.
        assert!(r.total_ns >= cfg.dram_latency_ns);
        assert_eq!(r.bytes_written, 1024.0);
    }

    #[test]
    fn atomics_include_offload_cost() {
        let cfg = MachineConfig::single_core();
        let r = one_thread(
            cfg.clone(),
            vec![Op::Atomic {
                slice: 0,
                bytes: 64.0,
                tag: OpTag::Atomic,
            }],
        );
        assert!(r.total_ns >= cfg.dram_latency_ns + cfg.atomic_ns);
    }

    #[test]
    fn remote_access_is_slower_than_local() {
        let cfg = MachineConfig::node(4);
        let sim = Simulator::new(cfg);
        let local = sim
            .run(vec![ThreadSpec::on_core(
                0,
                Box::new(VecProgram::new(vec![Op::Load {
                    slice: 0,
                    bytes: 8.0,
                    tag: OpTag::NnzRead,
                }])),
            )])
            .unwrap();
        let remote = sim
            .run(vec![ThreadSpec::on_core(
                0,
                Box::new(VecProgram::new(vec![Op::Load {
                    slice: 3,
                    bytes: 8.0,
                    tag: OpTag::NnzRead,
                }])),
            )])
            .unwrap();
        assert!(remote.total_ns > local.total_ns);
    }

    #[test]
    fn bandwidth_binds_throughput_under_saturation() {
        // Many threads streaming large DMA reads: achieved bandwidth should
        // approach the slice bandwidth.
        let cfg = MachineConfig::single_core();
        let sim = Simulator::new(cfg.clone());
        let threads: Vec<ThreadSpec> = (0..32)
            .map(|_| {
                let ops: Vec<Op> = (0..64)
                    .map(|_| Op::Dma {
                        read_slice: Some(0),
                        write_slice: None,
                        bytes: 1024.0,
                        tag: OpTag::FeatureRead,
                    })
                    .chain(std::iter::once(Op::DmaWait))
                    .collect();
                ThreadSpec::on_core(0, Box::new(VecProgram::new(ops)))
            })
            .collect();
        let r = sim.run(threads).unwrap();
        let achieved = r.achieved_bandwidth_gbps();
        assert!(
            achieved > cfg.dram_bandwidth_gbps * 0.8,
            "achieved {achieved} GB/s of {} GB/s",
            cfg.dram_bandwidth_gbps
        );
        assert!(achieved <= cfg.dram_bandwidth_gbps * 1.001);
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = MachineConfig::node(2);
        let run = || {
            let sim = Simulator::new(cfg.clone());
            let threads: Vec<ThreadSpec> = (0..8)
                .map(|i| {
                    let ops: Vec<Op> = (0..16)
                        .map(|j| Op::Load {
                            slice: (i + j) % 2,
                            bytes: 64.0,
                            tag: OpTag::FeatureRead,
                        })
                        .collect();
                    ThreadSpec::on_core(i % 2, Box::new(VecProgram::new(ops)))
                })
                .collect();
            sim.run(threads).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn barrier_synchronizes_threads() {
        // Thread A computes for a long time, thread B barely at all; after
        // the barrier both must resume at the same instant, later than A's
        // arrival plus the barrier latency.
        let cfg = MachineConfig::single_core();
        let slow_cycles = 10_000.0;
        let sim = Simulator::new(cfg.clone());
        let r = sim
            .run(vec![
                ThreadSpec::on_core(
                    0,
                    Box::new(VecProgram::new(vec![
                        Op::Compute {
                            cycles: slow_cycles,
                        },
                        Op::Barrier,
                        Op::Compute { cycles: 1.0 },
                    ])),
                ),
                ThreadSpec::on_core(
                    0,
                    Box::new(VecProgram::new(vec![
                        Op::Barrier,
                        Op::Compute { cycles: 1.0 },
                    ])),
                ),
            ])
            .unwrap();
        let expected_min = slow_cycles * cfg.cycle_ns() + cfg.barrier_latency_ns();
        assert!(
            r.total_ns >= expected_min,
            "total {} should include the straggler + barrier ({expected_min})",
            r.total_ns
        );
        assert!(r.total_ns < expected_min + 100.0);
    }

    #[test]
    fn barrier_releases_when_other_threads_finish() {
        // One thread hits a barrier, the other simply ends: the waiter must
        // not deadlock.
        let cfg = MachineConfig::single_core();
        let sim = Simulator::new(cfg);
        let r = sim
            .run(vec![
                ThreadSpec::on_core(
                    0,
                    Box::new(VecProgram::new(vec![
                        Op::Barrier,
                        Op::Compute { cycles: 5.0 },
                    ])),
                ),
                ThreadSpec::on_core(
                    0,
                    Box::new(VecProgram::new(vec![Op::Compute { cycles: 2000.0 }])),
                ),
            ])
            .unwrap();
        assert!(r.total_ns.is_finite());
        assert!(r.total_ns > 0.0);
    }

    #[test]
    fn consecutive_barriers_work() {
        let cfg = MachineConfig::single_core();
        let make = || {
            Box::new(VecProgram::new(vec![
                Op::Barrier,
                Op::Compute { cycles: 10.0 },
                Op::Barrier,
                Op::Compute { cycles: 10.0 },
            ])) as Box<dyn Program>
        };
        let r = Simulator::new(cfg.clone())
            .run(vec![
                ThreadSpec::on_core(0, make()),
                ThreadSpec::on_core(0, make()),
            ])
            .unwrap();
        assert!(r.total_ns >= 2.0 * cfg.barrier_latency_ns());
    }

    #[test]
    fn tracing_records_ordered_events_up_to_the_limit() {
        let cfg = MachineConfig::single_core();
        let ops = vec![
            Op::Compute { cycles: 10.0 },
            Op::Load {
                slice: 0,
                bytes: 64.0,
                tag: OpTag::FeatureRead,
            },
            Op::Dma {
                read_slice: Some(0),
                write_slice: None,
                bytes: 128.0,
                tag: OpTag::FeatureRead,
            },
            Op::DmaWait,
        ];
        let (result, trace) = Simulator::new(cfg)
            .run_traced(
                vec![ThreadSpec::on_core(
                    0,
                    Box::new(VecProgram::new(ops.clone())),
                )],
                100,
            )
            .unwrap();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0].kind, "compute");
        assert_eq!(trace[1].kind, "load");
        assert_eq!(trace[2].kind, "dma");
        assert_eq!(trace[3].kind, "dma_wait");
        for w in trace.windows(2) {
            assert!(w[1].start_ns >= w[0].start_ns);
        }
        assert!(trace.iter().all(|e| e.end_ns >= e.start_ns));

        // The limit truncates; a zero limit disables tracing entirely, and
        // timing is identical either way.
        let (r2, t2) = Simulator::new(MachineConfig::single_core())
            .run_traced(
                vec![ThreadSpec::on_core(0, Box::new(VecProgram::new(ops)))],
                2,
            )
            .unwrap();
        assert_eq!(t2.len(), 2);
        assert_eq!(r2.total_ns, result.total_ns);
    }

    #[test]
    fn utilizations_are_fractions() {
        let cfg = MachineConfig::single_core();
        let r = one_thread(
            cfg,
            vec![
                Op::Compute { cycles: 100.0 },
                Op::Load {
                    slice: 0,
                    bytes: 64.0,
                    tag: OpTag::FeatureRead,
                },
            ],
        );
        for u in [
            r.dram_utilization,
            r.dma_utilization,
            r.pipeline_utilization,
        ] {
            assert!((0.0..=1.0).contains(&u));
        }
        assert!(r.pipeline_utilization > 0.0);
    }

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
    fn guarded_run_with_unbounded_guard_matches_plain_run() {
        let cfg = MachineConfig::single_core();
        let plain = one_thread(cfg.clone(), load_program(16));
        let guard = RunGuard::unbounded();
        let outcome = Simulator::new(cfg)
            .run_guarded(
                vec![ThreadSpec::on_core(
                    0,
                    Box::new(VecProgram::new(load_program(16))),
                )],
                &guard,
            )
            .unwrap();
        match outcome {
            RunOutcome::Complete(r) => assert_eq!(r.total_ns, plain.total_ns),
            RunOutcome::Partial { .. } => panic!("unbounded guard stopped the run"),
        }
    }

    #[test]
    fn cancelled_token_yields_partial_before_first_event() {
        let token = CancelToken::new();
        token.cancel();
        let guard = RunGuard::with_token(token);
        let outcome = Simulator::new(MachineConfig::single_core())
            .run_guarded(
                vec![ThreadSpec::on_core(
                    0,
                    Box::new(VecProgram::new(load_program(16))),
                )],
                &guard,
            )
            .unwrap();
        match outcome {
            RunOutcome::Partial { reason, .. } => {
                assert_eq!(reason, StopReason::Cancelled);
            }
            RunOutcome::Complete(_) => panic!("cancelled run completed"),
        }
    }

    #[test]
    fn zero_budget_yields_partial() {
        let guard = RunGuard::with_budget(std::time::Duration::ZERO);
        let outcome = Simulator::new(MachineConfig::single_core())
            .run_guarded(
                vec![ThreadSpec::on_core(
                    0,
                    Box::new(VecProgram::new(load_program(64))),
                )],
                &guard,
            )
            .unwrap();
        match outcome {
            RunOutcome::Partial { reason, .. } => {
                assert_eq!(reason, StopReason::BudgetExceeded);
            }
            RunOutcome::Complete(_) => panic!("zero-budget run completed"),
        }
    }
}
