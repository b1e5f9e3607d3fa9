//! RTP/RTCP stack for the real-time video pipeline.
//!
//! The paper's workload is RTP-over-UDP video with two congestion-control
//! feedback dialects (§3.2): GCC consumes the transport-wide congestion
//! control RTCP extension (draft-holmer-rmcat-transport-wide-cc), SCReAM
//! consumes RFC 8888 congestion control feedback. Both are implemented here
//! with **real wire formats** — packets serialise to bytes and are parsed
//! back by the receiver — because the paper's SCReAM finding (§4.2.1)
//! hinges on a wire-level detail: an RTCP feedback packet can only
//! acknowledge a bounded span of RTP packets, and at high bitrates a
//! 64-packet span leaves packets unacknowledged.
//!
//! Modules:
//!
//! * [`packet`] — RFC 3550 RTP header with the transport-wide sequence
//!   number extension; serialise/parse.
//! * [`twcc`] — transport-wide feedback RTCP packet (status chunks +
//!   receive deltas) and the receiver-side recorder that builds them.
//! * [`rfc8888`] — RFC 8888 congestion control feedback blocks with a
//!   configurable per-packet report span.
//! * [`packetize`] — frame → RTP packets and back.
//! * [`rtcp`] — the 12-byte feedback header and the `(FMT, PT)` table
//!   that tells the five receiver→sender dialects apart.
//! * [`pli`] — picture loss indication (RFC 4585), the receiver→sender
//!   keyframe-recovery trigger after decode-breaking loss.
//! * [`nack`] — RFC 4585 generic NACK wire format and the receiver-side
//!   gap detector / deadline-aware NACK scheduler.
//! * [`report`] — per-path receiver report (cumulative counters + newest
//!   one-way delay), the health-feedback stream of the multi-operator
//!   failover subsystem.
//! * [`rtx`] — RFC 4588-style retransmission: sender history window plus
//!   a token-bucket repair budget charged against the CC target rate.
//! * [`jitter`] — the receiver jitter buffer (150 ms default, matching the
//!   pipeline in §3.2), including the `drop-on-latency` mode discussed in
//!   Appendix A.4.
//! * [`seqwindow`] — the sequence space: the one 16-bit → `u64`
//!   unwrapper, the dense per-sequence window every table above uses, and
//!   the receiver's one reader of arriving media sequences.
//! * [`fec`] — GF(256) Reed–Solomon forward error correction groups, the
//!   cross-leg redundancy layer of the bonded multipath scheme.
//! * [`error`] — the typed [`ParseError`] every wire parser returns; all
//!   parsers are total functions over arbitrary bytes.

pub mod error;
pub mod fec;
pub mod jitter;
pub mod nack;
pub mod packet;
pub mod packetize;
pub mod pli;
pub mod report;
pub mod rfc8888;
pub mod rtcp;
pub mod rtx;
pub mod seqwindow;
pub mod twcc;

pub use error::ParseError;
pub use fec::MAX_FEC_GROUP;
pub use jitter::{JitterBuffer, JitterConfig};
pub use nack::{Nack, NackConfig, NackGenerator, NackStats};
pub use packet::RtpPacket;
pub use packetize::{Depacketizer, FrameMeta, Packetizer, ReassembledFrame};
pub use pli::Pli;
pub use report::PathReport;
pub use rfc8888::{Rfc8888Builder, Rfc8888Packet, Rfc8888Report};
pub use rtx::{RtxConfig, RtxSender, RtxStats};
pub use twcc::{TwccFeedback, TwccRecorder};
