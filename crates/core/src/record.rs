//! The issl record layer: type-length-value framing, with encrypted
//! records carrying `IV || CBC(payload) || HMAC`. Framing is sans-I/O:
//! `push_record` writes a frame into a byte buffer and the
//! [`SessionMachine`](crate::SessionMachine) parses inbound frames from
//! the bytes it is fed.
//!
//! The wire constants (type bytes, header layout, size cap) live in
//! [`crate::recmap`] — shared with the guest C record runtime, which is
//! generated from the same module.

use crate::recmap;
use crate::wire::WireError;

/// Record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordType {
    /// Client hello: nonce + offered cipher geometry.
    ClientHello,
    /// Server hello: nonce + (host profile) RSA public key.
    ServerHello,
    /// RSA-encrypted premaster secret.
    KeyExchange,
    /// Handshake-transcript MAC.
    Finished,
    /// Application data.
    Data,
    /// Fatal alert / orderly close.
    Alert,
}

impl RecordType {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            RecordType::ClientHello => recmap::REC_CLIENT_HELLO,
            RecordType::ServerHello => recmap::REC_SERVER_HELLO,
            RecordType::KeyExchange => recmap::REC_KEY_EXCHANGE,
            RecordType::Finished => recmap::REC_FINISHED,
            RecordType::Data => recmap::REC_DATA,
            RecordType::Alert => recmap::REC_ALERT,
        }
    }

    pub(crate) fn from_byte(b: u8) -> Option<RecordType> {
        Some(match b {
            recmap::REC_CLIENT_HELLO => RecordType::ClientHello,
            recmap::REC_SERVER_HELLO => RecordType::ServerHello,
            recmap::REC_KEY_EXCHANGE => RecordType::KeyExchange,
            recmap::REC_FINISHED => RecordType::Finished,
            recmap::REC_DATA => RecordType::Data,
            recmap::REC_ALERT => RecordType::Alert,
            _ => return None,
        })
    }
}

/// Largest record body accepted (see [`crate::recmap::MAX_RECORD`]).
pub const MAX_RECORD: usize = recmap::MAX_RECORD;

/// Record-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Transport failed underneath.
    Wire(WireError),
    /// Unknown record type byte.
    BadType(u8),
    /// Record body exceeds [`MAX_RECORD`].
    TooLong(usize),
    /// Clean end of stream between records.
    Eof,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Wire(e) => write!(f, "transport: {e}"),
            RecordError::BadType(b) => write!(f, "unknown record type {b:#04x}"),
            RecordError::TooLong(n) => write!(f, "record of {n} bytes exceeds {MAX_RECORD}"),
            RecordError::Eof => write!(f, "end of stream"),
        }
    }
}

impl std::error::Error for RecordError {}

/// A parsed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Content type.
    pub kind: RecordType,
    /// Raw body (plaintext for handshake records, ciphertext for data).
    pub body: Vec<u8>,
}

/// Appends a record to `out`: `[type:1][len:2 BE][body]`. The reading
/// half of the framing is [`SessionMachine`](crate::SessionMachine)'s
/// inbound record parser.
///
/// # Errors
///
/// [`RecordError::TooLong`] for a body over [`MAX_RECORD`]; `out` is
/// then left as it was.
pub(crate) fn push_record(
    out: &mut Vec<u8>,
    kind: RecordType,
    body: &[u8],
) -> Result<(), RecordError> {
    if body.len() > MAX_RECORD {
        return Err(RecordError::TooLong(body.len()));
    }
    out.push(kind.to_byte());
    out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    out.extend_from_slice(body);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SessionMachine;
    use crate::session::{CipherSuite, IsslError, ServerConfig, ServerKx};
    use crypto::Prng;

    fn server() -> SessionMachine {
        let config = ServerConfig {
            suites: vec![CipherSuite::AES128],
            kx: ServerKx::PreShared(b"record psk".to_vec()),
        };
        SessionMachine::server(config, Prng::new(9))
    }

    /// A well-formed ClientHello body: the suite, then a nonce.
    fn hello_body() -> Vec<u8> {
        let mut body = crate::wire::suite_to_bytes(CipherSuite::AES128).to_vec();
        body.extend_from_slice(&[0x5a; recmap::NONCE_LEN]);
        body
    }

    #[test]
    fn record_round_trip() {
        let mut out = Vec::new();
        push_record(&mut out, RecordType::ClientHello, &hello_body()).unwrap();
        let mut s = server();
        s.feed(&out).unwrap();
        // The server parsed the hello and answered it.
        assert_eq!(s.take_output()[0], recmap::REC_SERVER_HELLO);
    }

    #[test]
    fn empty_body_is_fine() {
        let mut out = Vec::new();
        push_record(&mut out, RecordType::Alert, &[]).unwrap();
        assert_eq!(out, [recmap::REC_ALERT, 0, 0]);
        // The frame parses; only the handshake objects to an alert here.
        let mut s = server();
        assert_eq!(
            s.feed(&out),
            Err(IsslError::Handshake("expected client hello"))
        );
    }

    #[test]
    fn oversized_record_rejected_on_write() {
        let mut out = vec![7];
        let big = vec![0u8; MAX_RECORD + 1];
        assert_eq!(
            push_record(&mut out, RecordType::Data, &big),
            Err(RecordError::TooLong(MAX_RECORD + 1))
        );
        assert_eq!(out, [7], "nothing appended");
    }

    #[test]
    fn bad_type_byte_rejected() {
        let mut s = server();
        assert_eq!(
            s.feed(&[0x99, 0, 0]),
            Err(IsslError::Record(RecordError::BadType(0x99)))
        );
    }

    #[test]
    fn multiple_records_in_sequence() {
        let mut out = Vec::new();
        push_record(&mut out, RecordType::ClientHello, &hello_body()).unwrap();
        push_record(&mut out, RecordType::Alert, recmap::ALERT_CLOSE).unwrap();
        // One feed carries both: the hello is answered, then the alert
        // where the key exchange belongs ends the handshake.
        let mut s = server();
        assert_eq!(
            s.feed(&out),
            Err(IsslError::Handshake("expected key exchange"))
        );
        assert_eq!(s.take_output()[0], recmap::REC_SERVER_HELLO);
    }
}
