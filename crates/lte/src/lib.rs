//! Event-driven LTE access network simulator.
//!
//! This crate is the substitute for the commercial LTE networks the paper
//! measured over (§3.1): it reproduces, from first principles, the
//! *distributions* the campaign observed rather than replaying traces.
//!
//! The model chain is:
//!
//! ```text
//! BS deployment ──► antenna gain (down-tilt + side lobes)
//!               ──► path loss + correlated shadowing (altitude-aware LoS)
//!               ──► per-cell RSRP  ──► SINR (serving vs. interference)
//!               ──► uplink capacity (attenuated Shannon → LTE throughput)
//! UE mobility   ──► A3 measurement events ──► handovers (HET sampling,
//!                   ping-pong, radio-link failures)
//! ```
//!
//! Key aerial effects reproduced (paper §4.1):
//!
//! * **More handovers in the air** — above the roofline the UE sees many
//!   cells at comparable strength through antenna side lobes, so A3 events
//!   fire an order of magnitude more often than on the ground.
//! * **HET heavy tail** — most executions are < 49.5 ms (the 3GPP success
//!   threshold) but the air adds outliers up to ≈4 s via radio-link
//!   failures during execution.
//! * **Latency spikes before handovers** — capacity sags as the serving
//!   cell degrades *before* the A3 trigger, so queues build and one-way
//!   delay spikes ≈0.5 s ahead of the RRC reconfiguration, as in Fig. 8(a).
//! * **Loss stays flat** — deep eNodeB buffers turn congestion into delay;
//!   residual PER is a bursty 0.06–0.07 % (Gilbert–Elliott in `rpav-netem`),
//!   with extra loss events above 80 m in the urban profile.
//!
//! The crate does not move packets itself. [`RadioModel::step`] returns a
//! [`RadioSample`] (capacity, serving cell, handover events) that the
//! pipeline applies to its `rpav-netem` paths, keeping radio modelling and
//! packet transport independently testable.

pub mod antenna;
pub mod cell;
pub mod channel;
pub mod handover;
pub mod profiles;
pub mod radio;

pub use cell::{BaseStation, Cell, CellId, Deployment};
pub use handover::{HandoverEvent, HandoverKind};
pub use profiles::{Environment, NetworkProfile, Operator};
pub use radio::{LinkHealthSignal, RadioModel, RadioSample};
