//! The experiment harness: deterministic rank × thread grids.

use crate::method::Method;
use mtmpi_metrics::{DanglingSampler, GrantFold, Histogram};
use mtmpi_net::{FaultPlan, NetModel};
use mtmpi_obs::{RingRecorder, RunRecord, Sink, Timeline, TimelineClaim, DEFAULT_SHARD_CAP};
use mtmpi_runtime::{RankHandle, RankStats, RuntimeCosts, VciMap, World};
use mtmpi_sim::{
    LockModelParams, Platform, PlatformReport, SimError, StepOutcome, ThreadDesc, VirtualPlatform,
};
use mtmpi_topology::{presets, Binding, BindingPolicy, ClusterTopology};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Observability settings for a family of runs.
#[derive(Clone, Default)]
pub struct ObsConfig {
    /// Where per-run summaries ([`RunRecord`]) accumulate; `None` = don't
    /// summarize. The first run launched of each `(label, threads,
    /// nodes)` configuration records its timeline for the sink
    /// ([`Sink::claim`]); the others run with the recorder off.
    pub sink: Option<Arc<Sink>>,
    /// Hand every run's full structured-event timeline (CS spans, request
    /// life-cycle, poll batches, RMA services) back in
    /// [`RunOutcome::timeline`]. Off by default: the histograms are
    /// always on, the timeline costs memory and host time.
    pub trace: bool,
}

/// What every worker closure receives.
pub struct ThreadCtx {
    /// Handle for MPI calls as this thread's rank.
    pub rank: RankHandle,
    /// Thread index within the rank (`0..nthreads`).
    pub thread: u32,
    /// Threads per rank in this run.
    pub nthreads: u32,
}

/// Environment shared by a family of runs: machine, network, cost models,
/// seed.
#[derive(Clone)]
pub struct Experiment {
    /// Cluster topology (defines NUMA hand-off costs).
    pub cluster: ClusterTopology,
    /// Interconnect model.
    pub net: NetModel,
    /// Virtual lock-arbitration parameters.
    pub lock_params: LockModelParams,
    /// Runtime per-operation costs.
    pub costs: RuntimeCosts,
    /// Master seed; every derived randomness is a pure function of it.
    pub seed: u64,
    /// Observability: summary sink and timeline capture.
    pub obs: ObsConfig,
    /// Link fault injection + recovery policy. The inert default
    /// ([`FaultPlan::none`]) leaves every run on the fault-free fast
    /// paths, byte-identical to a harness without the knob.
    pub faults: FaultPlan,
    /// Scheduler-event budget per run (`None` = unlimited). With a
    /// bound, a livelocked run fails [`Experiment::try_run`] with
    /// [`SimError::FuelExhausted`] instead of spinning forever.
    pub fuel: Option<u64>,
}

impl Experiment {
    /// Paper-grade defaults on a cluster of `nodes` Nehalem nodes.
    pub fn quick(nodes: u32) -> Self {
        Self {
            cluster: presets::nehalem_cluster_scaled(nodes),
            net: NetModel::qdr(),
            lock_params: LockModelParams::default(),
            costs: RuntimeCosts::default(),
            seed: 0x5EED,
            obs: ObsConfig::default(),
            faults: FaultPlan::none(),
            fuel: None,
        }
    }

    /// Same, with an explicit seed.
    pub fn with_seed(nodes: u32, seed: u64) -> Self {
        Self {
            seed,
            ..Self::quick(nodes)
        }
    }

    /// Accumulate a [`RunRecord`] per run into `sink`.
    pub fn observe(mut self, sink: Arc<Sink>) -> Self {
        self.obs.sink = Some(sink);
        self
    }

    /// Capture the structured-event timeline of every run and return it
    /// in [`RunOutcome::timeline`].
    pub fn trace(mut self, on: bool) -> Self {
        self.obs.trace = on;
        self
    }

    /// Inject deterministic link faults into every run (see
    /// [`FaultPlan`]). Same experiment seed + same plan ⇒ byte-identical
    /// results, fault decisions included.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Bound every run to at most `max_events` scheduler events (see
    /// [`Experiment::fuel`] field docs).
    pub fn fuel(mut self, max_events: u64) -> Self {
        self.fuel = Some(max_events);
        self
    }

    /// Run `body` on every (rank, thread) of the grid described by `cfg`,
    /// on a fresh virtual platform. Panics (with the [`SimError`]
    /// rendering) on fuel exhaustion or deadlock — see
    /// [`Experiment::try_run`] for the typed surface.
    pub fn run<F>(&self, cfg: RunConfig, body: F) -> RunOutcome
    where
        F: Fn(ThreadCtx) + Send + Sync + 'static,
    {
        self.try_run(cfg, body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Experiment::run`], but fuel exhaustion and deadlock come back
    /// as typed [`SimError`]s carrying the per-thread blocked-state
    /// snapshot.
    pub fn try_run<F>(&self, cfg: RunConfig, body: F) -> Result<RunOutcome, SimError>
    where
        F: Fn(ThreadCtx) + Send + Sync + 'static,
    {
        let mut run = self.try_start(cfg, body);
        // An effectively-unbounded quantum: identical to the monolithic
        // platform run (fuel or completion wins first).
        run.step(u64::MAX)?;
        Ok(run.finish())
    }

    /// Launch the run described by `cfg` without driving it: build the
    /// world, spawn every simulated thread, and return a parked
    /// [`TenantRun`] — a `Send` work item a scheduler (mtmpi-serve)
    /// steps in bounded quanta, possibly from a different OS thread each
    /// quantum. [`Experiment::try_run`] is exactly `try_start` +
    /// `step(u64::MAX)` + `finish`, so quantum-stepped tenants replay
    /// monolithic runs byte-identically (same `end_ns`, same
    /// `sched_trace_hash`).
    pub fn try_start<F>(&self, cfg: RunConfig, body: F) -> TenantRun
    where
        F: Fn(ThreadCtx) + Send + Sync + 'static,
    {
        let nodes = cfg.nodes;
        assert!(nodes <= self.cluster.nodes, "config exceeds cluster size");
        let vplatform = Arc::new(VirtualPlatform::new(
            self.cluster.clone(),
            self.net.clone(),
            self.lock_params,
            self.seed,
        ));
        let platform: Arc<dyn Platform> = vplatform.clone();
        let threads_per_rank = if cfg.method.forces_single_thread() {
            1
        } else {
            cfg.threads_per_rank
        };
        let nranks = nodes * cfg.ranks_per_node;
        let ranks_per_node = cfg.ranks_per_node;
        // One recorder shard per recording thread (workers + progress
        // threads), plus four spares so an uncounted recording thread is
        // seated, not dropped.
        let recording_threads =
            nranks * threads_per_rank + if cfg.progress_thread { nranks } else { 0 } + 4;
        let label = cfg.effective_label();
        let sink = self.obs.sink.as_ref();
        let claim = sink.and_then(|s| s.claim(&label, threads_per_rank, nodes));
        let recorder = (self.obs.trace || claim.is_some()).then(|| {
            Arc::new(RingRecorder::with_shards(
                recording_threads as usize,
                DEFAULT_SHARD_CAP,
            ))
        });
        let mut builder = World::builder(platform.clone())
            .ranks(nranks)
            .rank_on_node(move |r| r / ranks_per_node)
            .lock(cfg.method.lock_kind())
            .costs(self.costs)
            .window_bytes(cfg.window_bytes)
            .expect_rma(cfg.progress_thread)
            .vci_map(cfg.vci_map);
        if cfg.streams > 0 {
            builder = builder.streams(cfg.streams);
        }
        if self.faults.is_active() {
            builder = builder.fault_plan(self.faults.clone());
        }
        if let Some(f) = self.fuel {
            builder = builder.fuel(f);
        }
        if let Some(rec) = &recorder {
            builder = builder.recorder(rec.clone());
        }
        let world = builder
            .build()
            .unwrap_or_else(|e| panic!("invalid run configuration: {e}"));

        // Binding: the node's worker threads (all ranks on the node ×
        // threads) fill cores according to the policy; the optional
        // progress thread of each rank takes the next slot.
        let slots_per_node = cfg.ranks_per_node * threads_per_rank
            + if cfg.progress_thread {
                cfg.ranks_per_node
            } else {
                0
            };
        let binding = Binding::new(&self.cluster.node, cfg.binding, slots_per_node);

        let body = Arc::new(body);
        for r in 0..nranks {
            let local_rank = r % cfg.ranks_per_node;
            let node = r / cfg.ranks_per_node;
            // Per-rank progress-thread shutdown: the last worker to
            // finish flips the stop flag.
            let stop = Arc::new(AtomicBool::new(false));
            let remaining = Arc::new(AtomicU32::new(threads_per_rank));
            for t in 0..threads_per_rank {
                let slot = (local_rank * threads_per_rank + t) as usize;
                let core = binding.core_of(slot);
                let handle = world.rank(r);
                let body = body.clone();
                let stop = stop.clone();
                let remaining = remaining.clone();
                platform.spawn(
                    ThreadDesc {
                        name: format!("r{r}t{t}"),
                        node,
                        core,
                    },
                    Box::new(move || {
                        body(ThreadCtx {
                            rank: handle,
                            thread: t,
                            nthreads: threads_per_rank,
                        });
                        if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            stop.store(true, Ordering::Release);
                        }
                    }),
                );
            }
            if cfg.progress_thread {
                let slot = (cfg.ranks_per_node * threads_per_rank + local_rank) as usize;
                let core = binding.core_of(slot);
                let handle = world.rank(r);
                platform.spawn(
                    ThreadDesc {
                        name: format!("r{r}prog"),
                        node,
                        core,
                    },
                    Box::new(move || handle.progress_loop(&stop)),
                );
            }
        }

        TenantRun {
            handle: vplatform.start(),
            world: Some(world),
            recorder,
            trace: self.obs.trace,
            sink: self.obs.sink.clone(),
            claim,
            label,
            nodes,
            nranks,
            threads_per_rank,
        }
    }
}

/// A launched-but-parked run: the `Send` work item behind
/// [`Experiment::try_start`]. Holds the platform's [`RunHandle`]
/// together with everything the post-run bookkeeping needs (world,
/// recorder, sink), so a worker pool can step it in quanta on whatever
/// OS thread is free and finish it wherever it completes.
pub struct TenantRun {
    handle: mtmpi_sim::RunHandle,
    // `Option` so `finish` can move the world into the outcome while
    // `Drop`-time abort marking still has it on error paths.
    world: Option<World>,
    recorder: Option<Arc<RingRecorder>>,
    /// The caller asked for the timeline back ([`Experiment::trace`]).
    trace: bool,
    sink: Option<Arc<Sink>>,
    /// This run records the timeline its sink keeps; dropping the run
    /// unfinished hands the slot to the configuration's next launch.
    claim: Option<TimelineClaim>,
    label: String,
    nodes: u32,
    nranks: u32,
    threads_per_rank: u32,
}

// A tenant must be parkable on one worker and resumable on another.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TenantRun>();
};

impl TenantRun {
    /// Advance the run by at most `quantum` scheduler events. On a typed
    /// failure the world is marked aborted (in-flight requests are the
    /// error's snapshot, not leaks) and the run refuses further steps.
    pub fn step(&mut self, quantum: u64) -> Result<StepOutcome, SimError> {
        match self.handle.step(quantum) {
            Ok(o) => Ok(o),
            Err(e) => {
                if let Some(w) = &self.world {
                    w.mark_aborted();
                }
                Err(e)
            }
        }
    }

    /// Scheduler events executed so far.
    pub fn events(&self) -> u64 {
        self.handle.events()
    }

    /// Latest virtual end time observed from finished threads.
    pub fn end_ns(&self) -> u64 {
        self.handle.end_ns()
    }

    /// `true` once the run reached [`StepOutcome::Done`].
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Collect the completed run: join workers, drain observability,
    /// feed the sink. Panics if the run has not reached
    /// [`StepOutcome::Done`] (same contract as `RunHandle::finish`).
    pub fn finish(mut self) -> RunOutcome {
        let report = self.handle.finish();
        let world = self.world.take().expect("finish() called once");
        let mut timeline = self.recorder.take().map(|rec| {
            // SAFETY: `RunHandle::finish` has joined every worker (and
            // any progress thread) — no thread is still writing.
            unsafe { rec.drain_unsynced() }
        });
        // The sink's timeline is moved out of the outcome; it is cloned
        // only when the caller asked for the timeline back as well.
        let kept = self.claim.take().and_then(|claim| {
            claim.keep();
            if self.trace {
                timeline.clone()
            } else {
                timeline.take()
            }
        });
        let out = RunOutcome {
            end_ns: report.end_ns,
            report,
            world,
            nranks: self.nranks,
            threads_per_rank: self.threads_per_rank,
            timeline,
        };
        if let Some(sink) = &self.sink {
            let mut cs_wait = Histogram::new();
            let mut cs_hold = Histogram::new();
            let mut msg_latency = Histogram::new();
            for r in 0..self.nranks {
                let st = out.world.stats(r);
                cs_wait.merge(&st.cs_wait_ns);
                cs_hold.merge(&st.cs_hold_ns);
                msg_latency.merge(&st.msg_latency_ns);
            }
            sink.push(RunRecord {
                label: self.label,
                threads: self.threads_per_rank,
                nodes: self.nodes,
                end_ns: out.end_ns,
                cs_wait,
                cs_hold,
                msg_latency,
                sched_trace_hash: out.report.sched_trace_hash,
                timeline: kept,
            });
        }
        out
    }
}

/// Grid + method description of one run.
#[derive(Clone)]
pub struct RunConfig {
    /// Arbitration method.
    pub method: Method,
    /// Number of cluster nodes used.
    pub nodes: u32,
    /// MPI ranks per node.
    pub ranks_per_node: u32,
    /// Threads per rank (ignored for [`Method::Single`]).
    pub threads_per_rank: u32,
    /// Thread-to-core binding policy.
    pub binding: BindingPolicy,
    /// RMA window size per rank (0 = no window).
    pub window_bytes: usize,
    /// Spawn an asynchronous progress thread per rank.
    pub progress_thread: bool,
    /// VCI sharding policy (`VciMap::new(1)` = the single global
    /// critical section).
    pub vci_map: VciMap,
    /// Single-owner stream shards appended after the sharded VCIs
    /// (0 = none).
    pub streams: u32,
    /// Run label recorded in bench output (`None` = the method label).
    /// Labels key baseline diffing and timeline retention, so runs of
    /// one figure that differ beyond `(method, threads, nodes)` — e.g.
    /// a fault-plan sweep — should carry distinct labels.
    pub label: Option<String>,
}

impl RunConfig {
    /// Defaults matching the paper's common setup: 2 nodes × 1 rank,
    /// compact binding, global CS, no RMA, no progress thread.
    pub fn new(method: Method) -> Self {
        Self {
            method,
            nodes: 2,
            ranks_per_node: 1,
            threads_per_rank: 1,
            binding: BindingPolicy::Compact,
            window_bytes: 0,
            progress_thread: false,
            vci_map: VciMap::new(1),
            streams: 0,
            label: None,
        }
    }

    /// Set the node count.
    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n;
        self
    }

    /// Set ranks per node.
    pub fn ranks_per_node(mut self, n: u32) -> Self {
        self.ranks_per_node = n;
        self
    }

    /// Set threads per rank.
    pub fn threads_per_rank(mut self, n: u32) -> Self {
        self.threads_per_rank = n;
        self
    }

    /// Set the binding policy.
    pub fn binding(mut self, b: BindingPolicy) -> Self {
        self.binding = b;
        self
    }

    /// Enable an RMA window of `bytes` per rank.
    pub fn window_bytes(mut self, bytes: usize) -> Self {
        self.window_bytes = bytes;
        self
    }

    /// Enable the per-rank asynchronous progress thread.
    pub fn progress_thread(mut self, on: bool) -> Self {
        self.progress_thread = on;
        self
    }

    /// Shard every rank's runtime into the VCIs `map` routes across
    /// (default `VciMap::new(1)`, the unsharded global critical
    /// section).
    pub fn vci_map(mut self, map: VciMap) -> Self {
        self.vci_map = map;
        self
    }

    /// Give every rank `n` single-owner stream shards (bound at run time
    /// with `ctx.rank.stream_at(..)`).
    pub fn streams(mut self, n: u32) -> Self {
        self.streams = n;
        self
    }

    /// Override the recorded run label (defaults to the method label).
    pub fn label(mut self, l: impl Into<String>) -> Self {
        self.label = Some(l.into());
        self
    }

    /// The label this run is recorded under.
    pub fn effective_label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| self.method.label().to_string())
    }
}

/// Results of one run.
pub struct RunOutcome {
    /// Raw platform report (grant statistics by LockId).
    pub report: PlatformReport,
    /// The world (post-run profiling accessors).
    pub world: World,
    /// Virtual end time.
    pub end_ns: u64,
    /// Total ranks.
    pub nranks: u32,
    /// Effective threads per rank.
    pub threads_per_rank: u32,
    /// Structured-event timeline (present when the experiment had
    /// tracing enabled via [`Experiment::trace`]).
    pub timeline: Option<Timeline>,
}

impl RunOutcome {
    /// Grant statistics of a rank's queue lock.
    pub fn grants(&self, rank: u32) -> &GrantFold {
        &self.report.lock_grants[self.world.lock_of(rank).0]
    }

    /// The unified post-run snapshot of one rank (counters, histograms,
    /// ledger, dangling profile, window contents).
    pub fn stats(&self, rank: u32) -> RankStats {
        self.world.stats(rank)
    }

    /// Dangling-request profile of a rank.
    pub fn dangling(&self, rank: u32) -> DanglingSampler {
        self.stats(rank).dangling
    }

    /// End-to-end wall (virtual) seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns as f64 / 1e9
    }

    /// Messages/sec for `total_msgs` messages moved during the run.
    pub fn msg_rate(&self, total_msgs: u64) -> f64 {
        total_msgs as f64 / self.seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_method_forces_one_thread() {
        let exp = Experiment::quick(2);
        let out = exp.run(
            RunConfig::new(Method::Single).threads_per_rank(8).nodes(1),
            |ctx| {
                assert_eq!(ctx.nthreads, 1);
                assert_eq!(ctx.thread, 0);
            },
        );
        assert_eq!(out.threads_per_rank, 1);
    }

    #[test]
    fn grid_spawns_rank_times_threads() {
        use std::sync::atomic::AtomicU32;
        let exp = Experiment::quick(2);
        let count = Arc::new(AtomicU32::new(0));
        let c2 = count.clone();
        let out = exp.run(
            RunConfig::new(Method::Ticket)
                .nodes(2)
                .ranks_per_node(2)
                .threads_per_rank(3),
            move |ctx| {
                assert!(ctx.thread < 3);
                assert!(ctx.rank.rank() < 4);
                c2.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 12);
        assert_eq!(out.nranks, 4);
    }
}
