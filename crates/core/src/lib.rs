//! # axml-core — Positive Active XML
//!
//! A from-scratch Rust implementation of the model of
//! *Positive Active XML* (Abiteboul, Benjelloun, Milo — PODS 2004):
//!
//! * **AXML documents** (§2.1): unordered labeled trees mixing data nodes
//!   with *function nodes* — embedded calls to (Web) services —
//!   [`tree`], [`forest`], [`parse`], [`display`];
//! * **subsumption, equivalence, reduction** (Def 2.2, Prop 2.1):
//!   [`subsume`], [`mod@reduce`];
//! * **monotone systems and fair rewriting** (Def 2.3–2.5, Thm 2.1):
//!   [`system`], [`service`], [`invoke`], [`engine`];
//! * **positive queries** (Def 3.1, Prop 3.1): [`pattern`], [`query`],
//!   [`matcher`], [`eval`];
//! * **dependency graphs, acyclic systems** (Def 3.2): [`depgraph`];
//! * **regular-tree graph representations and decidable termination for
//!   simple systems** (Lemma 3.2, Thm 3.3): [`regular`], [`graphrepr`];
//! * **fire-once semantics** (§4): [`fireonce`];
//! * **lazy query evaluation** (§4): [`lazy`];
//! * **regular path expressions and the ψ translation** (§5, Prop 5.1):
//!   [`pathexpr`], [`translate`];
//! * **indexed pattern matching** (implementation-level, not from the
//!   paper): an incremental per-document marking index backing the
//!   matcher's anchored descent and candidate seeding — [`index`];
//! * **query compilation** (implementation-level, not from the paper):
//!   per-service lowering of positive patterns into cached, optimized
//!   match programs executed by a decorrelated evaluator — [`compile`];
//! * **observability** (implementation-level, not from the paper):
//!   structured trace journal, per-service metrics, Chrome-trace export —
//!   [`trace`]; per-node data lineage and derivation explanations —
//!   [`provenance`];
//! * **serving entry points** (implementation-level, not from the
//!   paper): resumable round-at-a-time engine stepping
//!   ([`engine::RoundRunner`]) and continuous-query delta extraction
//!   ([`eval::QueryCursor`]) — the hooks the `axml-server` crate builds
//!   its batched requests and streaming subscriptions on.
//!
//! # Quickstart
//!
//! ```
//! use axml_core::engine::{run, EngineConfig};
//! use axml_core::system::System;
//! use axml_core::Sym;
//!
//! // Example 3.2 of the paper: transitive closure via an AXML service.
//! let mut sys = System::new();
//! sys.add_document_text(
//!     "edges",
//!     r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, @tc}"#,
//! )?;
//! sys.add_service_text(
//!     "tc",
//!     "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
//! )?;
//!
//! let (status, stats) = run(&mut sys, &EngineConfig::default())?;
//! assert_eq!(status, axml_core::engine::RunStatus::Terminated);
//! assert!(stats.productive > 0);
//! // The closure edge 1 → 3 was derived into the document.
//! let doc = sys.doc(Sym::intern("edges")).unwrap();
//! assert!(doc.to_string().contains(r#"to{"3"}"#));
//! # Ok::<(), axml_core::AxmlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod depgraph;
pub mod display;
pub mod engine;
pub mod error;
pub mod eval;
pub mod file;
pub mod fireonce;
pub mod forest;
pub mod gensys;
pub mod graphrepr;
pub mod index;
pub mod invoke;
pub mod lazy;
pub mod matcher;
pub mod parse;
pub mod pathexpr;
pub mod pattern;
pub mod provenance;
pub mod query;
pub mod reduce;
pub mod regular;
mod relation;
pub mod service;
pub mod subsume;
pub mod sym;
pub mod system;
pub mod trace;
pub mod translate;
pub mod tree;

pub use compile::{compile_query, CompiledQuery, MatchProgram, ProgramCache};
pub use depgraph::{read_set, ReadSet};
pub use engine::{run, run_traced, EngineConfig, RoundRunner, RunStats, RunStatus, Strategy};
pub use error::{AxmlError, Result};
pub use eval::{snapshot, Env, MatchCache, QueryCursor};
pub use forest::Forest;
pub use index::{DocIndex, IndexStats};
pub use invoke::invoke_node;
pub use matcher::MatchStrategy;
pub use parse::{parse_document, parse_pattern, parse_tree};
pub use provenance::{
    DerivationDag, InvocationRecord, Origin, Provenance, ProvenanceStore, SkipRecord,
};
pub use query::{parse_query, Query};
pub use reduce::{canonical_key, lub, reduce, CanonKey};
pub use subsume::{compare, equivalent, subsumed};
pub use sym::Sym;
pub use system::{System, SystemSnapshot};
pub use trace::{
    chrome_trace, json_escape, parse_chrome_trace, parse_json, validate_chrome_trace, ChromeEvent,
    EventKind, Journal, JsonValue, MetricsRegistry, ReqKind, SessionMetrics, TraceEvent, TraceSink,
    Tracer,
};
pub use tree::{Marking, NodeId, Tree};
