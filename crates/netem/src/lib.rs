//! Packet-level network emulation substrate.
//!
//! This crate provides the generic transport machinery the LTE simulator
//! (`rpav-lte`) and the WAN leg are assembled from:
//!
//! * [`Packet`] — the unit every stage of the pipeline moves around: opaque
//!   payload bytes plus bookkeeping (sequence number, wire size, send time).
//! * [`DropTailQueue`] — a byte/packet bounded FIFO with drop statistics;
//!   the deep, bufferbloated eNodeB uplink queue is one of these with a
//!   large byte limit.
//! * [`BottleneckLink`] — serialisation at a (time-varying) bit-rate
//!   followed by propagation delay. The LTE air interface drives the rate
//!   from SINR; the WAN leg uses a fixed high rate.
//! * [`DelayPipe`] — pure delay with optional jitter, FIFO-preserving.
//! * [`GilbertElliott`] — the bursty baseline loss process at every path
//!   entry.
//! * [`ReorderStage`] — bounded-displacement packet reordering, composable
//!   onto a path exit and scriptable via reorder windows.
//! * [`Path`] — a composition of stages with a single `poll` interface.
//! * [`FaultScript`] / [`OutageScheduler`] — deterministic scripted fault
//!   campaigns (timed blackouts, feedback-only loss, delay spikes,
//!   duplication/corruption/reorder windows, altitude-keyed coverage
//!   holes) composable onto any path.
//!
//! All components follow the same poll-based idiom: `enqueue(now, packet)`
//! to push, `poll(now) -> Option<Packet>` to drain deliveries that are due,
//! and `next_wake()` to tell the event loop when to come back.

pub mod fault;
pub mod link;
pub mod packet;
pub mod path;
pub mod queue;
pub mod reorder;
pub mod script;

pub use fault::{corrupt_payload, GilbertElliott};
pub use link::{BottleneckLink, DelayPipe};
pub use packet::{Packet, PacketKind};
pub use path::Path;
pub use queue::{DropTailQueue, QueueStats};
pub use reorder::{ReorderConfig, ReorderStage, ReorderStats};
pub use script::{FaultClause, FaultScript, OutageScheduler, ScriptStats};
