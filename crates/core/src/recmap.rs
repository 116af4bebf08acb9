//! The shared record-layer wire map: one source of truth for the issl
//! record framing constants, exactly as `rabbit::nicmap` is for the NIC
//! register file.
//!
//! Three consumers must agree byte-for-byte on these values:
//!
//! * the host-side Rust record layer ([`crate::record`] and the sans-I/O
//!   [`crate::machine::SessionMachine`]);
//! * the blocking [`crate::session::Session`] wrapper;
//! * the *guest* C record runtime (`rmc2000::secure`), whose source is
//!   generated by splicing these constants in — the Dynamic C subset has
//!   no preprocessor, so the "header" is generated, not included.
//!
//! Changing a value here changes every profile at once; nothing else in
//! the tree may restate one of these numbers.

/// Record header: `[type:1][len:2 BE]`.
pub const HEADER_LEN: usize = 3;

/// Largest record body accepted. The embedded profile statically
/// allocates buffers of exactly this size (§5.2: no `malloc`).
pub const MAX_RECORD: usize = 2048;

/// Handshake nonce length carried in both hello bodies.
pub const NONCE_LEN: usize = 16;

/// Payload carried per data record (fits [`MAX_RECORD`] with IV and MAC).
pub const FRAGMENT: usize = 1024;

/// Record MAC length (HMAC-SHA1; equals `crypto::DIGEST_LEN`).
pub const MAC_LEN: usize = 20;

/// `ClientHello` record type byte: nonce + offered cipher geometry.
pub const REC_CLIENT_HELLO: u8 = 1;
/// `ServerHello` record type byte: nonce + (host profile) RSA key.
pub const REC_SERVER_HELLO: u8 = 2;
/// `KeyExchange` record type byte: RSA premaster (empty under PSK).
pub const REC_KEY_EXCHANGE: u8 = 3;
/// `Finished` record type byte: handshake-transcript MAC.
pub const REC_FINISHED: u8 = 4;
/// `Data` record type byte: `IV || CBC(payload) || HMAC`.
pub const REC_DATA: u8 = 5;
/// `Alert` record type byte: fatal alert / orderly close.
pub const REC_ALERT: u8 = 6;

/// Suite geometry bytes for AES-128/128 (`[key words, block words]`), the
/// only suite the RMC2000 port carries (§5: "we hard-coded the choice").
pub const AES128_GEOMETRY: [u8; 2] = [4, 4];

/// `ClientHello` body length under the embedded profile: geometry +
/// client nonce.
pub const CLIENT_HELLO_LEN: usize = 2 + NONCE_LEN;

/// `ServerHello` body length under the PSK profile: geometry + server
/// nonce + two zero-length (modulus, exponent) fields.
pub const SERVER_HELLO_PSK_LEN: usize = 2 + NONCE_LEN + 4;

/// Alert body for an orderly close.
pub const ALERT_CLOSE: &[u8] = b"close";
/// Alert body when the offered suite is not served.
pub const ALERT_UNSUPPORTED_SUITE: &[u8] = b"unsupported suite";
/// Alert body when the peer's Finished MAC does not verify.
pub const ALERT_BAD_FINISHED: &[u8] = b"bad finished";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_len_is_the_sha1_digest() {
        assert_eq!(MAC_LEN, crypto::DIGEST_LEN);
    }

    #[test]
    fn geometry_matches_the_wire_encoding() {
        use crate::session::CipherSuite;
        use crate::wire::suite_to_bytes;
        assert_eq!(suite_to_bytes(CipherSuite::AES128), AES128_GEOMETRY);
    }

    #[test]
    fn hello_lengths_cover_the_machine_checks() {
        assert_eq!(CLIENT_HELLO_LEN, 18);
        assert_eq!(SERVER_HELLO_PSK_LEN, 22);
    }

    #[test]
    fn largest_data_record_fits() {
        // IV + padded fragment + MAC must fit a record body.
        let worst_case = 16 + (FRAGMENT + 16) + MAC_LEN;
        assert!(worst_case <= MAX_RECORD);
    }
}
