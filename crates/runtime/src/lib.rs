//! A thread-multiple MPI-subset runtime.
//!
//! This crate is the reproduction's stand-in for MPICH: the substrate the
//! paper instruments and modifies. It implements, over any
//! [`mtmpi_sim::Platform`]:
//!
//! * **nonblocking two-sided point-to-point** (`isend`/`irecv`/`test`/
//!   `wait`/`waitall`) with the request life cycle of the paper's Fig 3b
//!   (*Issue → Post → Complete → Free*), posted/unexpected matching queues
//!   with `(communicator, source, tag)` wildcards, and per-source-ordered
//!   delivery (MPI's non-overtaking rule);
//! * a **progress engine** polling the platform mailbox, entered from
//!   blocking waits (which drop to the low-priority *progress* path after
//!   their first poll, as in Fig 6a) and from `test` (a single poll that
//!   stays on the high-priority *main* path, §6.2.1);
//! * **collectives** (barrier, broadcast, reductions) built on pt2pt;
//! * **one-sided RMA** (`put`/`get`/`accumulate` on a symmetric window)
//!   serviced by the target's progress engine, plus the asynchronous
//!   progress thread that makes single-threaded RMA exercise
//!   `MPI_THREAD_MULTIPLE` (the Fig 9 experiment);
//! * the **global critical section** protecting all of the above, with a
//!   pluggable arbitration ([`mtmpi_sim::LockKind`]);
//! * built-in **profiling**: the dangling-request sampler of §4.4, the
//!   acquisition traces consumed by the §4.3 bias analysis, and — via the
//!   [`mtmpi_obs`] observability layer — always-on CS wait/hold and
//!   message-latency histograms (read back with [`World::stats`]) plus
//!   an optional structured event timeline: install a
//!   [`mtmpi_obs::RingRecorder`] with [`WorldBuilder::recorder`] and
//!   drain it once the run is over. Without one, recording is off.
//!
//! Usage sketch (see `examples/` for runnable versions):
//!
//! ```
//! use mtmpi_runtime::{World, MsgData};
//! use mtmpi_sim::{LockKind, Platform, VirtualPlatform, LockModelParams, ThreadDesc};
//! use mtmpi_net::NetModel;
//! use mtmpi_topology::{presets, CoreId};
//! use std::sync::Arc;
//!
//! let platform: Arc<dyn Platform> = Arc::new(VirtualPlatform::new(
//!     presets::nehalem_cluster_scaled(2), NetModel::qdr(),
//!     LockModelParams::default(), 1));
//! let world = World::builder(platform.clone())
//!     .ranks(2)
//!     .rank_on_node(|r| r) // rank r on node r
//!     .lock(LockKind::Ticket)
//!     .build()
//!     .expect("valid configuration");
//! let (a, b) = (world.rank(0).world_comm(), world.rank(1).world_comm());
//! platform.spawn(
//!     ThreadDesc { name: "sender".into(), node: 0, core: CoreId(0) },
//!     Box::new(move || { a.send(1, 7, MsgData::Bytes(vec![42])); }));
//! platform.spawn(
//!     ThreadDesc { name: "receiver".into(), node: 1, core: CoreId(0) },
//!     Box::new(move || {
//!         let m = b.recv(Some(0), Some(7));
//!         assert_eq!(m.data.as_bytes(), &[42]);
//!     }));
//! platform.run();
//! ```

pub mod coll;
pub mod comm;
pub mod costs;
pub mod errors;
pub mod faults;
mod ledger;
pub mod p2p;
pub mod packet;
pub mod progress;
pub mod request;
pub mod rma;
pub mod state;
pub mod stats;
pub mod stream;
pub mod types;
mod vci;
pub mod world;

pub use comm::Comm;
pub use costs::RuntimeCosts;
pub use errors::{BuildError, MpiError, StreamBindError};
pub use ledger::{LeakReport, RequestLedger};
pub use request::{Request, TestOutcome};
pub use stats::RankStats;
pub use stream::Stream;
pub use types::{CommId, Msg, MsgData, Tag, ANY_SOURCE, ANY_TAG};
pub use vci::VciMap;
pub use world::{RankHandle, World, WorldBuilder};

/// One-stop imports for programs built on the runtime.
///
/// ```
/// use mtmpi_runtime::prelude::*;
/// ```
///
/// brings in the world-building API, message types, the platform layer
/// (virtual and native), lock knobs, topology presets, and
/// the observability entry points — everything the `examples/` need.
pub mod prelude {
    pub use crate::{
        BuildError, Comm, CommId, MpiError, Msg, MsgData, RankHandle, RankStats, Request,
        RuntimeCosts, Stream, StreamBindError, Tag, TestOutcome, VciMap, World, WorldBuilder,
        ANY_SOURCE, ANY_TAG,
    };
    pub use mtmpi_locks::PathClass;
    pub use mtmpi_net::{FaultPlan, NetModel};
    pub use mtmpi_obs::{RingRecorder, Timeline};
    pub use mtmpi_sim::{
        LockKind, LockModelParams, NativePlatform, Platform, PlatformReport, ThreadDesc,
        VirtualPlatform,
    };
    pub use mtmpi_topology::{presets, ClusterTopology, CoreId, SocketId};
    pub use std::sync::Arc;
}
