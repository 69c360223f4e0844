//! # ode-wire
//!
//! The Ode client/server wire protocol and the blocking client library.
//!
//! This crate is the shared vocabulary between `ode-server` (the network
//! front-end) and `ode-shell --connect` (the remote REPL); it depends on
//! nothing so either side can use it without pulling in the engine.
//!
//! * [`protocol`] — length-prefixed frames and the typed
//!   [`Request`]/[`Response`] messages, with a version handshake,
//! * [`client`] — a blocking [`Client`] over a `TcpStream`, returning
//!   typed [`ClientError`]s that distinguish transport failures from
//!   engine errors.

pub mod client;
pub mod protocol;

pub use client::{Client, ClientError, PushEvent, RemoteLine};
pub use protocol::{ControlOp, ErrorKind, Request, Response, PROTOCOL_VERSION};
