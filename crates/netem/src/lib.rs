//! Packet-level network emulation substrate.
//!
//! This crate provides the generic transport machinery the LTE simulator
//! (`rpav-lte`) and the WAN leg are assembled from:
//!
//! * [`Packet`] — the unit every stage of the pipeline moves around: opaque
//!   payload bytes plus bookkeeping (sequence number, wire size, send time).
//! * [`Path`] — one direction of a leg: baseline loss, a byte-bounded
//!   drop-tail queue (the deep, bufferbloated eNodeB buffer), a radio
//!   serialiser at a (time-varying) bit-rate plus propagation delay (the
//!   LTE air interface drives the rate from SINR), and a FIFO WAN leg with
//!   jitter. Every stage after the loss process is FIFO, so each path
//!   keeps its packets in one store in entry order and the stages are
//!   counts over it; [`QueueStats`] are its queue's counters.
//! * [`GilbertElliott`] — the bursty baseline loss process at every path
//!   entry.
//! * [`ReorderStage`] — bounded-displacement packet reordering, composable
//!   onto a path exit and scriptable via reorder windows.
//! * [`FaultScript`] / [`OutageScheduler`] — deterministic scripted fault
//!   campaigns (timed blackouts, feedback-only loss, delay spikes,
//!   duplication/corruption/reorder windows, altitude-keyed coverage
//!   holes) composable onto any path.
//!
//! All components follow the same poll-based idiom: `enqueue(now, packet)`
//! to push, `poll(now) -> Option<Packet>` to drain deliveries that are due,
//! and `next_wake()` to tell the event loop when to come back.

pub mod fault;
#[cfg(test)]
mod link;
pub mod packet;
pub mod path;
#[cfg(test)]
mod queue;
pub mod reorder;
pub mod script;

pub use fault::{corrupt_payload, GilbertElliott};
pub use packet::{Packet, PacketKind};
pub use path::{Path, QueueStats};
pub use reorder::{ReorderConfig, ReorderStage, ReorderStats};
pub use script::{FaultClause, FaultScript, OutageScheduler, ScriptStats};
