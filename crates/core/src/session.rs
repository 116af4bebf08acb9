//! Secure sessions: the issl handshake and the `secure_read` /
//! `secure_write` data path (§2: "the issl API allows a user to bind to
//! the socket and then do secure read/writes on it").
//!
//! The protocol logic itself lives in the sans-I/O
//! [`SessionMachine`]; [`Session`] is the
//! blocking convenience wrapper that pumps a [`Wire`] through one —
//! byte-identical to the original blocking implementation (pinned by the
//! `sans_io_equiv` property tests).
//!
//! Two key-exchange modes reflect the two profiles of the case study:
//!
//! * [`ServerKx::Rsa`] — the full host-side handshake: the server sends
//!   its RSA public key, the client returns an RSA-encrypted premaster
//!   secret.
//! * [`ServerKx::PreShared`] — the RMC2000 port's degenerate handshake:
//!   RSA was dropped with its bignum package, so both ends derive session
//!   keys from a pre-shared secret plus fresh nonces.

use crypto::{Prng, Size};
use rsa::KeyPair;

use crate::machine::SessionMachine;
use crate::record::RecordError;
use crate::wire::Wire;

/// Cipher geometry negotiated in the hello exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CipherSuite {
    /// Rijndael key size.
    pub key: Size,
    /// Rijndael block size.
    pub block: Size,
}

impl CipherSuite {
    /// AES-128 with 128-bit blocks — the only suite the RMC2000 port
    /// kept.
    pub const AES128: CipherSuite = CipherSuite {
        key: Size::Bits128,
        block: Size::Bits128,
    };
}

/// Session-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsslError {
    /// Record-layer failure.
    Record(RecordError),
    /// MAC verification failed (tampering or key mismatch).
    BadMac,
    /// Malformed or out-of-order handshake message.
    Handshake(&'static str),
    /// The peer offered a suite this endpoint does not support (the RMC
    /// profile rejects everything but AES-128/128).
    UnsupportedSuite,
    /// RSA failure during key exchange.
    Rsa,
    /// Decryption produced garbage (bad padding).
    Corrupt,
    /// Peer sent a fatal alert.
    PeerAlert,
}

impl std::fmt::Display for IsslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsslError::Record(e) => write!(f, "record layer: {e}"),
            IsslError::BadMac => write!(f, "record MAC verification failed"),
            IsslError::Handshake(m) => write!(f, "handshake: {m}"),
            IsslError::UnsupportedSuite => write!(f, "unsupported cipher suite"),
            IsslError::Rsa => write!(f, "rsa key exchange failed"),
            IsslError::Corrupt => write!(f, "record decryption failed"),
            IsslError::PeerAlert => write!(f, "peer sent a fatal alert"),
        }
    }
}

impl std::error::Error for IsslError {}

impl From<RecordError> for IsslError {
    fn from(e: RecordError) -> IsslError {
        IsslError::Record(e)
    }
}

/// Client-side key-exchange configuration.
#[derive(Debug, Clone)]
pub enum ClientKx {
    /// Expect an RSA public key in the server hello.
    Rsa,
    /// Use a pre-shared secret (the embedded port's mode).
    PreShared(Vec<u8>),
}

/// Server-side key-exchange configuration.
#[derive(Clone)]
pub enum ServerKx {
    /// Offer this RSA key pair.
    Rsa(KeyPair),
    /// Use a pre-shared secret.
    PreShared(Vec<u8>),
}

impl std::fmt::Debug for ServerKx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerKx::Rsa(_) => write!(f, "ServerKx::Rsa(..)"),
            ServerKx::PreShared(_) => write!(f, "ServerKx::PreShared(..)"),
        }
    }
}

/// Server policy: which suites to accept.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accepted suites, in preference order.
    pub suites: Vec<CipherSuite>,
    /// Key exchange mode.
    pub kx: ServerKx,
}

/// Client policy: the suite to offer.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Offered suite.
    pub suite: CipherSuite,
    /// Key exchange mode.
    pub kx: ClientKx,
}

/// An established secure channel over a [`Wire`]: a [`SessionMachine`]
/// plus the transport that feeds it.
pub struct Session<W: Wire> {
    wire: W,
    machine: SessionMachine,
}

/// Transport scratch size for wrapper reads. Reads are greedy — whatever
/// the wire returns is fed to the machine, which processes exactly as
/// many records as the blocking path would have.
const READ_CHUNK: usize = 4096;

impl<W: Wire> Session<W> {
    /// Runs the client side of the handshake and returns the session.
    ///
    /// # Errors
    ///
    /// Any [`IsslError`]: transport failure, malformed messages, MAC
    /// mismatch in `Finished`, or an alert from a server that rejected
    /// the offered suite.
    pub fn client_handshake(
        mut wire: W,
        config: &ClientConfig,
        prng: Prng,
    ) -> Result<Session<W>, IsslError> {
        let mut machine = SessionMachine::client(config.clone(), prng);
        Self::drive_handshake(&mut wire, &mut machine)?;
        Ok(Session { wire, machine })
    }

    /// Runs the server side of the handshake.
    ///
    /// # Errors
    ///
    /// [`IsslError::UnsupportedSuite`] when the client offers a geometry
    /// outside `config.suites` (an alert is sent first — this is the
    /// embedded profile rejecting 192/256-bit requests); other variants
    /// as for the client.
    pub fn server_handshake(
        mut wire: W,
        config: &ServerConfig,
        prng: Prng,
    ) -> Result<Session<W>, IsslError> {
        let mut machine = SessionMachine::server(config.clone(), prng);
        Self::drive_handshake(&mut wire, &mut machine)?;
        Ok(Session { wire, machine })
    }

    /// Pumps wire bytes through the machine until the handshake finishes
    /// or fails. Output is flushed before the error check so protocol
    /// alerts (unsupported suite, bad finished) reach the peer first,
    /// exactly like the blocking code's `let _ = write_record(alert)`.
    fn drive_handshake(wire: &mut W, machine: &mut SessionMachine) -> Result<(), IsslError> {
        loop {
            let out = machine.take_output();
            if !out.is_empty() {
                let sent = wire.write_all(&out);
                if let Some(e) = machine.error() {
                    return Err(e.clone());
                }
                sent.map_err(|e| IsslError::Record(RecordError::Wire(e)))?;
            }
            if let Some(e) = machine.error() {
                return Err(e.clone());
            }
            if machine.is_established() {
                return Ok(());
            }
            let mut tmp = [0u8; READ_CHUNK];
            match wire.read(&mut tmp) {
                Ok(0) => machine.feed_eof(),
                Ok(n) => {
                    // A sticky error surfaces on the next loop pass, after
                    // any alert the machine queued has been flushed.
                    let _ = machine.feed(&tmp[..n]);
                }
                Err(e) => return Err(IsslError::Record(RecordError::Wire(e))),
            }
        }
    }

    /// Encrypts and sends application data (fragmenting across records).
    ///
    /// # Errors
    ///
    /// Transport failures via [`IsslError::Record`].
    pub fn secure_write(&mut self, data: &[u8]) -> Result<(), IsslError> {
        self.machine.write(data)?;
        let out = self.machine.take_output();
        self.wire
            .write_all(&out)
            .map_err(|e| IsslError::Record(RecordError::Wire(e)))
    }

    /// Receives and decrypts application data into `buf`. Returns 0 at an
    /// orderly close.
    ///
    /// # Errors
    ///
    /// [`IsslError::BadMac`] / [`IsslError::Corrupt`] on tampered
    /// records, transport failures otherwise.
    pub fn secure_read(&mut self, buf: &mut [u8]) -> Result<usize, IsslError> {
        loop {
            // Buffered plaintext first: a greedy read may have processed a
            // good record and then hit a bad one — the blocking path would
            // deliver the good plaintext and only error on the next call.
            if self.machine.available() > 0 {
                return Ok(self.machine.read_plaintext(buf));
            }
            if let Some(e) = self.machine.error() {
                return Err(e.clone());
            }
            if self.machine.is_peer_closed() {
                return Ok(0);
            }
            let mut tmp = [0u8; READ_CHUNK];
            match self.wire.read(&mut tmp) {
                Ok(0) => self.machine.feed_eof(),
                Ok(n) => {
                    let _ = self.machine.feed(&tmp[..n]);
                }
                Err(e) => return Err(IsslError::Record(RecordError::Wire(e))),
            }
        }
    }

    /// Sends a close alert.
    ///
    /// # Errors
    ///
    /// Transport failures via [`IsslError::Record`].
    pub fn close(&mut self) -> Result<(), IsslError> {
        self.machine.close()?;
        let out = self.machine.take_output();
        self.wire
            .write_all(&out)
            .map_err(|e| IsslError::Record(RecordError::Wire(e)))
    }

    /// Gives back the transport.
    pub fn into_wire(self) -> W {
        self.wire
    }

    /// Records sent so far (sequence number of the next outgoing record).
    pub fn records_sent(&self) -> u64 {
        self.machine.records_sent()
    }
}

impl<W: Wire> std::fmt::Debug for Session<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("seq_out", &self.machine.records_sent())
            .field("seq_in", &self.machine.records_received())
            .field("block_len", &self.machine.block_len())
            .finish()
    }
}
