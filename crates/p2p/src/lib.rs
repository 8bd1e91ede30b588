//! # axml-p2p — simulated peer-to-peer AXML data management
//!
//! The paper frames AXML as "a powerful framework for distributed data
//! management" over P2P networks (§1, §6): peers host documents and
//! offer AXML services to one another; calls are activated repeatedly in
//! a *pull* mode, or providers *push* new results to their callers — two
//! essentially equivalent views of the same streams of data (§2.2
//! remark). §6 also notes that detecting termination of the distributed
//! system needs a dedicated mechanism, since each peer only sees its own
//! fixpoint.
//!
//! This crate runs that setting:
//!
//! * [`network`] — peers, peer-qualified service names (`peer.svc`),
//!   message-counted request/response (pull) and subscription (push)
//!   propagation, with randomizable delivery order for the confluence
//!   experiments;
//! * [`termination`] — a polling-based distributed quiescence detector
//!   validated against the simulator's global oracle;
//! * [`threaded`] — the same peers on OS threads, exchanging messages
//!   over channels, with a coordinator running the same quiescence rule.
//!
//! One runtime, two schedules: the simulator's seeded delivery order
//! and a real thread interleaving both drive the peer steps of
//! [`network`] (issue a call, serve it, absorb the response), so each
//! piece of AXML semantics is written once. Both can record structured
//! trace journals of their message traffic and provider evaluations —
//! see [`axml_core::trace`], [`Network::enable_tracing`] and
//! [`ThreadedConfig::trace`] — and per-peer provenance stores that stamp
//! cross-peer lineage onto delivered nodes — see
//! [`axml_core::provenance`], [`Network::enable_provenance`] and
//! [`ThreadedConfig::provenance`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod termination;
pub mod threaded;

pub use network::{Mode, Network, NetworkStats, Peer};
pub use termination::{detect_termination, Verdict};
pub use threaded::{run_threaded, standalone_peer, ThreadedConfig, ThreadedOutcome};
