//! **issl** — the network cryptographic service of *Porting a Network
//! Cryptographic Service to the RMC2000* (DATE 2003), rebuilt in full:
//! an SSL-style secure-channel library that layers on top of a sockets
//! layer, with both ends of the case study:
//!
//! * the **Unix host profile** ([`host`]): RSA key exchange over BSD
//!   sockets, a fork-style concurrent secure redirector, unbounded
//!   logging to a filesystem;
//! * the **RMC2000 port profile** ([`rmc`]): the paper's Figure 3 server
//!   — handler costatements plus a `tcp_tick` costatement over the
//!   Dynamic C socket API, pre-shared keys instead of RSA (the bignum
//!   package didn't make the crossing), AES-128/128 only, static
//!   allocation from an `xalloc` arena, and a circular log instead of a
//!   file.
//!
//! Under both sit the sans-I/O pieces that take bytes in and give bytes
//! out with no transport: the session core ([`machine`]), the one echo
//! client schedule built on it ([`echo`]), and the event loop that
//! multiplexes many machines over netsim sockets ([`serve`]).
//!
//! Layering (§2: "After a normal unencrypted socket is created, the issl
//! API allows a user to bind to the socket and then do secure read/writes
//! on it"):
//!
//! ```text
//!   application
//!   ── secure_read / secure_write ───────────── [session]
//!   ── records: type ‖ len ‖ IV ‖ CBC ‖ HMAC ── [record]
//!   ── transport: BSD / Dynamic C ───────────── [wire]
//!   ── simulated TCP/IP ─────────────────────── netsim
//! ```

pub mod echo;
pub mod fs;
pub mod host;
pub mod kdf;
pub mod log;
pub mod machine;
pub mod recmap;
pub mod record;
pub mod rmc;
pub mod serve;
pub mod session;
pub mod wire;

pub use echo::EchoClient;
pub use fs::Filesystem;
pub use host::ComputeCost;
pub use log::{CircularLog, FileLog, Log};
pub use machine::SessionMachine;
pub use record::{Record, RecordError, RecordType, MAX_RECORD};
pub use serve::{EventLoop, LoadSpec, ServeReport};
pub use session::{
    CipherSuite, ClientConfig, ClientKx, IsslError, ServerConfig, ServerKx, Session,
};
pub use wire::{suite_from_bytes, suite_to_bytes, BsdWire, DynicWire, Wire, WireError};
