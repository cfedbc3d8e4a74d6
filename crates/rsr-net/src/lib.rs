//! A real TCP transport behind `rsr-core`'s
//! [`Channel`](rsr_core::channel::Channel) trait, plus a multi-session
//! reconciliation server and client.
//!
//! PR 2 split every protocol into Alice/Bob session state machines that
//! only exchange byte-exact [`Frame`](rsr_core::channel::Frame)s over a
//! [`Channel`](rsr_core::channel::Channel); this crate is the first real
//! transport behind that seam. Three layers, std-only:
//!
//! * [`codec`] — the length-prefixed record grammar: every record carries
//!   a session id, and a `FRAME` record carries a session-layer `Frame`
//!   (label, payload, exact bit length) verbatim, so transcript
//!   accounting on the two endpoints agrees bit for bit.
//! * [`TcpChannel`] — one endpoint of a point-to-point connection,
//!   implementing `Channel` over `std::net::TcpStream`. Each process
//!   runs its own party's session with
//!   [`drive_channel`](rsr_core::session::drive_channel); the sessions
//!   themselves are unchanged from the in-memory path.
//! * [`ReconServer`] — many concurrent sessions multiplexed over each
//!   connection, driven on `rsr-core`'s sharded worker-pool executor
//!   (see [`executor`]): the server holds the Bob half of every session
//!   (created on demand by a [`SessionFactory`], placed on a shard by
//!   power-of-two choices) behind one readiness reactor for every
//!   connection.
//! * [`Driver`] — the one client entry point over all of it:
//!   `Driver::new(addr).conns(n).shards(s)` then [`Driver::batch`]
//!   (closed loop), [`Driver::load`] (open loop), or
//!   [`Driver::connect`] for a persistent [`ConnectedDriver`] pool
//!   running many rounds — including **continuous** sessions, whose
//!   resident state spans rounds under one wire id (see
//!   [`SessionPlan::open_continuous`]). Every run returns one
//!   [`DriverReport`] of per-connection [`RunReport`]s.
//!
//! Both endpoints keep per-session
//! [`Transcript`](rsr_core::transcript::Transcript)s and per-connection
//! byte counters that must — and are tested to — agree with the
//! in-memory driver's accounting.
//!
//! See `docs/transport.md` for the wire layout and error-handling rules.

pub mod client;
pub mod codec;
pub mod driver;
pub mod executor;
mod obs;
mod reactor;
pub mod server;
pub mod tcp;

pub use client::SessionPlan;
pub use codec::{
    read_record, write_record, NetError, Record, RecordDecoder, SessionSpec, MAX_RECORD_BYTES,
    PROTO_CONT, PROTO_EMD, PROTO_GAP, PROTO_SCALED_EMD, STATUS_OK, STATUS_SESSION_ERROR,
    STATUS_UNKNOWN_SESSION,
};
pub use driver::{ConnectedDriver, Driver, DriverReport, RunReport, RunSession};
pub use executor::{default_shards, MAX_DEFAULT_SHARDS};
pub use server::{
    handle_connection, ConnectionReport, NetSession, ReconServer, SessionFactory, SessionSummary,
};
pub use tcp::TcpChannel;
