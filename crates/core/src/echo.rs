//! The secure echo client: a [`SessionMachine`] plus the one schedule
//! every host-side echo client runs. Nothing is written until the
//! session is established, error-free and not closed by the peer;
//! message `k` is written once messages `0..k` are fully echoed; the
//! session is closed once the last echo is complete.
//!
//! Like the machine, it has no transport: the caller feeds it what the
//! socket delivered, calls [`EchoClient::step`], and sends what
//! [`EchoClient::take_output`] returns. E9's load generator
//! ([`serve`](crate::serve)) and the `rmc2000` fleet clients drive it.

use crypto::Prng;

use crate::machine::SessionMachine;
use crate::session::{ClientConfig, IsslError};

/// A sans-I/O secure echo client.
pub struct EchoClient {
    machine: SessionMachine,
    msgs: Vec<Vec<u8>>,
    /// Total bytes of `msgs`: the echo is complete at this length.
    expected: usize,
    /// Index of the next message to write.
    next_msg: usize,
    /// Bytes written successfully so far.
    sent: usize,
    echoed: Vec<u8>,
    closing: bool,
}

impl EchoClient {
    /// A client that will echo `msgs`, in order, once the handshake is
    /// done. Its ClientHello is queued immediately.
    pub fn new(config: ClientConfig, prng: Prng, msgs: Vec<Vec<u8>>) -> EchoClient {
        EchoClient {
            machine: SessionMachine::client(config, prng),
            expected: msgs.iter().map(Vec::len).sum(),
            msgs,
            next_msg: 0,
            sent: 0,
            echoed: Vec::new(),
            closing: false,
        }
    }

    /// Feeds inbound transport bytes to the machine.
    ///
    /// # Errors
    ///
    /// The machine's sticky error, if processing hit one (now or
    /// earlier); bytes after the error point are never processed.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), IsslError> {
        self.machine.feed(bytes)
    }

    /// Signals a clean end of the inbound stream.
    pub fn feed_eof(&mut self) {
        self.machine.feed_eof();
    }

    /// Collects the echoed plaintext, then applies the schedule: writes
    /// the next message or, after the last echo, closes the session.
    ///
    /// # Errors
    ///
    /// The error of a message write that failed; that message's bytes
    /// are not counted as sent.
    pub fn step(&mut self) -> Result<(), IsslError> {
        self.echoed.extend(self.machine.take_plaintext());
        let healthy = self.machine.is_established()
            && self.machine.error().is_none()
            && !self.machine.is_peer_closed();
        if !healthy || self.echoed.len() != self.sent {
            return Ok(());
        }
        if let Some(msg) = self.msgs.get(self.next_msg) {
            self.next_msg += 1;
            self.machine.write(msg)?;
            self.sent += msg.len();
        } else if !self.closing && self.echoed.len() == self.expected {
            let _ = self.machine.close();
            self.closing = true;
        }
        Ok(())
    }

    /// Drains the bytes the client wants on the wire.
    pub fn take_output(&mut self) -> Vec<u8> {
        self.machine.take_output()
    }

    /// Whether outbound bytes are queued.
    pub fn has_output(&self) -> bool {
        self.machine.has_output()
    }

    /// The messages this client echoes, in order.
    pub fn messages(&self) -> &[Vec<u8>] {
        &self.msgs
    }

    /// Plaintext echoed back so far.
    pub fn echoed(&self) -> &[u8] {
        &self.echoed
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.machine.is_established()
    }

    /// Whether the peer ended the stream (close alert or clean EOF).
    pub fn is_peer_closed(&self) -> bool {
        self.machine.is_peer_closed()
    }

    /// The machine's sticky error, if it has failed.
    pub fn error(&self) -> Option<&IsslError> {
        self.machine.error()
    }

    /// Whether the schedule has closed the session (the close alert may
    /// still be queued).
    pub fn is_closing(&self) -> bool {
        self.closing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recmap;
    use crate::session::{CipherSuite, ClientKx, ServerConfig, ServerKx};

    const PSK: &[u8] = b"echo client psk";

    fn client(msgs: &[&[u8]]) -> EchoClient {
        let config = ClientConfig {
            suite: CipherSuite::AES128,
            kx: ClientKx::PreShared(PSK.to_vec()),
        };
        EchoClient::new(config, Prng::new(1), msgs.iter().map(|m| m.to_vec()).collect())
    }

    fn server() -> SessionMachine {
        let config = ServerConfig {
            suites: vec![CipherSuite::AES128],
            kx: ServerKx::PreShared(PSK.to_vec()),
        };
        SessionMachine::server(config, Prng::new(2))
    }

    /// The type byte of each record in `bytes`.
    fn record_types(bytes: &[u8]) -> Vec<u8> {
        let mut types = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            let len = usize::from(u16::from_be_bytes([rest[1], rest[2]]));
            types.push(rest[0]);
            rest = &rest[recmap::HEADER_LEN + len..];
        }
        types
    }

    /// Steps the client and moves its output to the server; returns the
    /// record types it sent.
    fn client_turn(c: &mut EchoClient, s: &mut SessionMachine) -> Vec<u8> {
        c.step().expect("schedule writes");
        let out = c.take_output();
        s.feed(&out).expect("server accepts the client's records");
        record_types(&out)
    }

    /// The server echoes what it decrypted; its output goes to the client.
    fn server_turn(c: &mut EchoClient, s: &mut SessionMachine) -> Result<(), IsslError> {
        let plain = s.take_plaintext();
        if !plain.is_empty() {
            s.write(&plain).expect("server echoes");
        }
        c.feed(&s.take_output())
    }

    /// Runs the handshake to completion; no data may leave before it.
    fn handshake(c: &mut EchoClient, s: &mut SessionMachine) {
        for _ in 0..4 {
            if c.is_established() {
                return;
            }
            let sent = client_turn(c, s);
            assert!(!sent.contains(&recmap::REC_DATA), "data before Finished: {sent:?}");
            server_turn(c, s).expect("handshake proceeds");
        }
        assert!(c.is_established(), "handshake completes");
    }

    #[test]
    fn nothing_is_written_before_the_handshake_completes() {
        let mut c = client(&[b"early"]);
        for _ in 0..3 {
            c.step().expect("no write attempted");
        }
        let hello = c.take_output();
        assert_eq!(record_types(&hello), vec![recmap::REC_CLIENT_HELLO]);
        let mut s = server();
        s.feed(&hello).expect("server accepts the hello");
        server_turn(&mut c, &mut s).expect("server hello verifies");
        handshake(&mut c, &mut s);
        assert_eq!(client_turn(&mut c, &mut s), vec![recmap::REC_DATA]);
    }

    #[test]
    fn one_message_is_in_flight_and_the_close_follows_the_last_echo() {
        let msgs: [&[u8]; 3] = [b"first", b"second", b"third"];
        let mut c = client(&msgs);
        let mut s = server();
        handshake(&mut c, &mut s);
        let mut echoed = 0;
        for (k, msg) in msgs.iter().enumerate() {
            assert_eq!(client_turn(&mut c, &mut s), vec![recmap::REC_DATA], "message {k}");
            assert_eq!(c.echoed().len(), echoed, "messages 0..{k} echoed");
            // Until the echo arrives, stepping writes nothing more.
            assert!(client_turn(&mut c, &mut s).is_empty(), "message {k} in flight");
            assert!(!c.is_closing());
            server_turn(&mut c, &mut s).expect("echo verifies");
            echoed += msg.len();
        }
        assert_eq!(client_turn(&mut c, &mut s), vec![recmap::REC_ALERT]);
        assert_eq!(c.echoed(), b"firstsecondthird");
        assert!(c.is_closing());
        assert!(s.is_peer_closed(), "the server saw the close alert");
        assert!(client_turn(&mut c, &mut s).is_empty(), "one close");
    }

    #[test]
    fn a_sticky_error_stops_the_schedule() {
        let mut c = client(&[b"one", b"two"]);
        let mut s = server();
        handshake(&mut c, &mut s);
        assert_eq!(client_turn(&mut c, &mut s), vec![recmap::REC_DATA]);
        server_turn(&mut c, &mut s).expect("first echo verifies");
        // A record with an unknown type byte ends the session.
        assert!(c.feed(&[0x99, 0, 0]).is_err());
        assert!(matches!(c.error(), Some(IsslError::Record(_))));
        for _ in 0..3 {
            assert!(client_turn(&mut c, &mut s).is_empty(), "nothing after the error");
        }
        assert_eq!(c.echoed(), b"one");
        assert!(!c.is_closing());
        assert!(c.feed(b"more").is_err(), "the error sticks");
    }

    #[test]
    fn a_tampered_echo_surfaces_as_bad_mac() {
        let mut c = client(&[b"tamper me"]);
        let mut s = server();
        handshake(&mut c, &mut s);
        client_turn(&mut c, &mut s);
        let plain = s.take_plaintext();
        s.write(&plain).expect("server echoes");
        let mut echo = s.take_output();
        *echo.last_mut().expect("a data record") ^= 0x01;
        assert_eq!(c.feed(&echo), Err(IsslError::BadMac));
        assert_eq!(c.error(), Some(&IsslError::BadMac));
        assert!(client_turn(&mut c, &mut s).is_empty());
        assert!(c.echoed().is_empty());
    }
}
