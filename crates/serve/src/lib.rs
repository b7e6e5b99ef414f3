//! Verification as a service: the `seqver serve` daemon and everything it
//! speaks and persists.
//!
//! The one-shot CLI rebuilds its proof library from nothing on every
//! invocation. This crate turns the verifier into a long-running service
//! whose proof state survives restarts and whose per-request failures stay
//! contained — the serving-side analogue of the proof-transfer ideas the
//! supervisor already uses *within* a process:
//!
//! * [`proto`] — the length-prefixed text wire protocol: framing with
//!   slow-loris/oversize/malformed-input defenses, request and response
//!   grammars.
//! * [`store`] — the crash-safe persistent proof store: a write-ahead
//!   journal of per-record checksummed frames fsynced by a group-commit
//!   leader before the client is acknowledged, folded into an atomic
//!   snapshot by background compaction; loaded leniently so a corrupted
//!   file or torn journal tail degrades to replaying the valid prefix,
//!   never a panic or a wrong assertion.
//! * [`crash`] — deterministic crash-point injection (`--crash-at
//!   SITE:N`): named abort sites on every durability boundary, so the
//!   crash sweep can kill the daemon between any two steps and assert
//!   what a restart recovers.
//! * [`server`] — the daemon: bounded-concurrency worker pool over a
//!   `TcpListener`, admission control with explicit `busy` shedding,
//!   panic quarantine, deadline/step budgets per request, and
//!   SIGINT/SIGTERM draining.
//! * [`client`] — a small blocking client used by `seqver submit`, the
//!   benches and the tests.
//!
//! Everything is `std`-only: sockets are `std::net`, concurrency is the
//! worker-thread idiom of `gemcutter::portfolio`, persistence rides on
//! `gemcutter::snapshot`'s atomic durable writes.

pub mod certfault;
pub mod client;
pub mod crash;
mod histogram;
pub mod proto;
pub mod server;
pub mod store;
