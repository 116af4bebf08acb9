//! The sans-I/O session core: the issl handshake and record data path as
//! a pure state machine that consumes bytes and emits bytes, with no
//! transport inside.
//!
//! This is the same decoupling move the paper's port makes (§5.3): the
//! protocol logic must not care whether it runs over blocking BSD reads,
//! a `tcp_tick`-pumped Dynamic C socket, or an event loop multiplexing a
//! thousand connections. Feed inbound bytes with [`SessionMachine::feed`]
//! (and [`SessionMachine::feed_eof`] at end of stream), drain outbound
//! bytes with [`SessionMachine::take_output`], and read decrypted
//! plaintext with [`SessionMachine::read_plaintext`]. The blocking
//! [`Session`](crate::session::Session) is a thin wrapper that pumps a
//! [`Wire`](crate::wire::Wire) through one of these; the event-loop
//! server in [`serve`](crate::serve) pumps many at once.
//!
//! Byte-for-byte equivalence with the original blocking implementation
//! is load-bearing (and pinned by the `sans_io_equiv` property tests):
//! the PRNG is consumed in exactly the original order (client nonce →
//! stir peer nonce → premaster → RSA padding → per-record IVs), and every
//! validation fires with the original error at the original point in the
//! stream.

use std::collections::VecDeque;

use crypto::{cbc_decrypt, cbc_encrypt, hmac_sha1, sha1, verify_hmac_sha1, Prng, Rijndael};
use rsa::PublicKey;

use crate::kdf::{derive_session_keys, SessionKeys};
use crate::record::{push_record, Record, RecordError, RecordType, MAX_RECORD};
use crate::recmap;
use crate::session::{ClientConfig, ClientKx, IsslError, ServerConfig, ServerKx};
use crate::wire::{suite_from_bytes, suite_to_bytes, WireError};

pub(crate) const NONCE_LEN: usize = recmap::NONCE_LEN;
pub(crate) const PREMASTER_LEN: usize = 32;
/// Payload carried per data record (fits [`MAX_RECORD`] with IV and MAC).
pub(crate) const FRAGMENT: usize = recmap::FRAGMENT;

/// Which side of the handshake this machine plays.
enum Role {
    Client(ClientConfig),
    Server(ServerConfig),
}

/// Where the machine is in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Client: ClientHello sent, waiting for the ServerHello.
    AwaitServerHello,
    /// Client: KeyExchange + Finished sent, waiting for the server's
    /// Finished.
    AwaitServerFinished,
    /// Server: waiting for the ClientHello.
    AwaitClientHello,
    /// Server: ServerHello sent, waiting for the KeyExchange.
    AwaitKeyExchange,
    /// Server: keys derived, waiting for the client's Finished.
    AwaitClientFinished,
    /// Handshake done; records carry application data.
    Established,
    /// A sticky error stopped the machine.
    Failed,
}

/// A sans-I/O secure session: handshake and record processing with all
/// I/O externalised.
pub struct SessionMachine {
    role: Role,
    state: State,
    prng: Prng,

    // Handshake intermediates.
    transcript: Vec<u8>,
    transcript_hash: [u8; 20],
    client_nonce: Vec<u8>,
    server_nonce: Vec<u8>,
    offered: Option<crate::session::CipherSuite>,
    keys: Option<SessionKeys>,

    // Established-state crypto.
    enc: Option<Rijndael>,
    dec: Option<Rijndael>,
    mac_out: Vec<u8>,
    mac_in: Vec<u8>,
    block_len: usize,
    seq_out: u64,
    seq_in: u64,

    // Byte queues.
    inbox: VecDeque<u8>,
    outbox: Vec<u8>,
    plain_buf: VecDeque<u8>,

    error: Option<IsslError>,
    peer_closed: bool,
    eof: bool,
}

impl SessionMachine {
    fn new(role: Role, state: State, prng: Prng) -> SessionMachine {
        SessionMachine {
            role,
            state,
            prng,
            transcript: Vec::new(),
            transcript_hash: [0u8; 20],
            client_nonce: Vec::new(),
            server_nonce: Vec::new(),
            offered: None,
            keys: None,
            enc: None,
            dec: None,
            mac_out: Vec::new(),
            mac_in: Vec::new(),
            block_len: 0,
            seq_out: 0,
            seq_in: 0,
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            plain_buf: VecDeque::new(),
            error: None,
            peer_closed: false,
            eof: false,
        }
    }

    /// Creates a client machine. The ClientHello is queued immediately —
    /// drain it with [`SessionMachine::take_output`].
    pub fn client(config: ClientConfig, mut prng: Prng) -> SessionMachine {
        let mut client_nonce = [0u8; NONCE_LEN];
        prng.fill(&mut client_nonce);
        let suite = config.suite;
        let mut m = SessionMachine::new(Role::Client(config), State::AwaitServerHello, prng);
        let mut hello = suite_to_bytes(suite).to_vec();
        hello.extend_from_slice(&client_nonce);
        let _ = m.emit_record(RecordType::ClientHello, &hello);
        m.transcript.extend_from_slice(&hello);
        m.client_nonce = client_nonce.to_vec();
        m
    }

    /// Creates a server machine, waiting for a ClientHello.
    pub fn server(config: ServerConfig, prng: Prng) -> SessionMachine {
        SessionMachine::new(Role::Server(config), State::AwaitClientHello, prng)
    }

    // ---- byte-queue interface -----------------------------------------

    /// Feeds inbound transport bytes and advances the machine as far as
    /// they allow.
    ///
    /// # Errors
    ///
    /// The machine's sticky error, if processing hit one (now or
    /// earlier). Bytes after the error point are never processed —
    /// exactly like the blocking path, which stops reading the wire at
    /// the first failure.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), IsslError> {
        self.inbox.extend(bytes);
        self.advance();
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Signals a clean end of the inbound stream. Mid-handshake this
    /// becomes [`RecordError::Eof`]; established with an empty inbox it
    /// is an orderly close; mid-record it is an unexpected EOF.
    pub fn feed_eof(&mut self) {
        self.eof = true;
        self.advance();
    }

    /// Drains the bytes the machine wants on the wire.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.outbox)
    }

    /// Whether outbound bytes are queued.
    pub fn has_output(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Decrypted plaintext bytes ready to read.
    pub fn available(&self) -> usize {
        self.plain_buf.len()
    }

    /// Pops decrypted plaintext into `buf`, returning the count.
    pub fn read_plaintext(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.plain_buf.len());
        for b in buf.iter_mut().take(n) {
            *b = self.plain_buf.pop_front().expect("length checked");
        }
        n
    }

    /// Takes all decrypted plaintext at once (event-loop convenience).
    pub fn take_plaintext(&mut self) -> Vec<u8> {
        self.plain_buf.drain(..).collect()
    }

    /// Encrypts application data into the outbox (fragmenting across
    /// records), mirroring the blocking `secure_write`.
    ///
    /// # Errors
    ///
    /// [`IsslError::Handshake`] before the handshake completes;
    /// [`IsslError::Corrupt`] if encryption fails.
    pub fn write(&mut self, data: &[u8]) -> Result<(), IsslError> {
        if self.state != State::Established {
            return Err(IsslError::Handshake("session not established"));
        }
        for chunk in data.chunks(FRAGMENT) {
            let mut iv = vec![0u8; self.block_len];
            self.prng.fill(&mut iv);
            let enc = self.enc.as_ref().expect("established");
            let ct = cbc_encrypt(enc, &iv, chunk).map_err(|_| IsslError::Corrupt)?;
            let mut mac_input = self.seq_out.to_be_bytes().to_vec();
            mac_input.extend_from_slice(&iv);
            mac_input.extend_from_slice(&ct);
            let mac = hmac_sha1(&self.mac_out, &mac_input);
            let mut body = iv;
            body.extend_from_slice(&ct);
            body.extend_from_slice(&mac);
            debug_assert!(body.len() <= MAX_RECORD);
            self.emit_record(RecordType::Data, &body)?;
            self.seq_out += 1;
        }
        Ok(())
    }

    /// Queues a close alert.
    ///
    /// # Errors
    ///
    /// [`RecordError::TooLong`] cannot actually occur for the fixed body.
    pub fn close(&mut self) -> Result<(), IsslError> {
        self.emit_record(RecordType::Alert, recmap::ALERT_CLOSE)
    }

    // ---- observers ----------------------------------------------------

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// Whether the peer ended the stream (close alert or clean EOF).
    pub fn is_peer_closed(&self) -> bool {
        self.peer_closed
    }

    /// The sticky error, if the machine has failed.
    pub fn error(&self) -> Option<&IsslError> {
        self.error.as_ref()
    }

    /// Records sent (sequence number of the next outgoing data record).
    pub fn records_sent(&self) -> u64 {
        self.seq_out
    }

    /// Data records received and verified.
    pub fn records_received(&self) -> u64 {
        self.seq_in
    }

    /// Cipher block length once established (0 before).
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    // ---- internals ----------------------------------------------------

    fn emit_record(&mut self, kind: RecordType, body: &[u8]) -> Result<(), IsslError> {
        push_record(&mut self.outbox, kind, body).map_err(IsslError::Record)
    }

    /// Pops one complete record off the inbox. Errors come in stream
    /// order: EOF only at a record boundary, then the type byte, then the
    /// length, with truncation-by-EOF mapping to
    /// [`WireError::UnexpectedEof`].
    fn next_record(&mut self) -> Result<Option<Record>, RecordError> {
        if self.inbox.is_empty() {
            if self.eof {
                return Err(RecordError::Eof);
            }
            return Ok(None);
        }
        if self.inbox.len() < 3 {
            if self.eof {
                return Err(RecordError::Wire(WireError::UnexpectedEof));
            }
            return Ok(None);
        }
        let type_byte = self.inbox[0];
        let kind = RecordType::from_byte(type_byte).ok_or(RecordError::BadType(type_byte))?;
        let len = usize::from(u16::from_be_bytes([self.inbox[1], self.inbox[2]]));
        if len > MAX_RECORD {
            return Err(RecordError::TooLong(len));
        }
        if self.inbox.len() < 3 + len {
            if self.eof {
                return Err(RecordError::Wire(WireError::UnexpectedEof));
            }
            return Ok(None);
        }
        self.inbox.drain(..3);
        let body: Vec<u8> = self.inbox.drain(..len).collect();
        Ok(Some(Record { kind, body }))
    }

    fn advance(&mut self) {
        loop {
            if self.error.is_some() || self.peer_closed {
                return;
            }
            let progressed = match self.state {
                State::Established => self.step_data(),
                State::Failed => false,
                _ => self.step_handshake(),
            };
            if !progressed {
                return;
            }
        }
    }

    fn step_handshake(&mut self) -> bool {
        let rec = match self.next_record() {
            Ok(Some(r)) => r,
            Ok(None) => return false,
            Err(e) => {
                self.error = Some(IsslError::Record(e));
                self.state = State::Failed;
                return false;
            }
        };
        let res = match self.state {
            State::AwaitServerHello => self.on_server_hello(&rec),
            State::AwaitServerFinished => self.on_server_finished(&rec),
            State::AwaitClientHello => self.on_client_hello(&rec),
            State::AwaitKeyExchange => self.on_key_exchange(&rec),
            State::AwaitClientFinished => self.on_client_finished(&rec),
            State::Established | State::Failed => unreachable!("handled in advance"),
        };
        if let Err(e) = res {
            self.error = Some(e);
            self.state = State::Failed;
            return false;
        }
        true
    }

    fn client_config(&self) -> ClientConfig {
        match &self.role {
            Role::Client(c) => c.clone(),
            Role::Server(_) => unreachable!("client state on server machine"),
        }
    }

    fn server_config(&self) -> ServerConfig {
        match &self.role {
            Role::Server(c) => c.clone(),
            Role::Client(_) => unreachable!("server state on client machine"),
        }
    }

    fn on_server_hello(&mut self, rec: &Record) -> Result<(), IsslError> {
        let config = self.client_config();
        if rec.kind == RecordType::Alert {
            return Err(IsslError::PeerAlert);
        }
        if rec.kind != RecordType::ServerHello {
            return Err(IsslError::Handshake("expected server hello"));
        }
        if rec.body.len() < 2 + NONCE_LEN + 4 {
            return Err(IsslError::Handshake("short server hello"));
        }
        let suite = suite_from_bytes(&rec.body).ok_or(IsslError::Handshake("bad suite"))?;
        if suite != config.suite {
            return Err(IsslError::Handshake("server changed the suite"));
        }
        let server_nonce = rec.body[2..2 + NONCE_LEN].to_vec();
        let mut off = 2 + NONCE_LEN;
        let n_len = usize::from(u16::from_be_bytes([rec.body[off], rec.body[off + 1]]));
        off += 2;
        let n_bytes = rec
            .body
            .get(off..off + n_len)
            .ok_or(IsslError::Handshake("truncated modulus"))?
            .to_vec();
        off += n_len;
        let e_len = usize::from(u16::from_be_bytes([
            *rec.body.get(off).ok_or(IsslError::Handshake("truncated"))?,
            *rec.body
                .get(off + 1)
                .ok_or(IsslError::Handshake("truncated"))?,
        ]));
        off += 2;
        let e_bytes = rec
            .body
            .get(off..off + e_len)
            .ok_or(IsslError::Handshake("truncated exponent"))?
            .to_vec();
        self.transcript.extend_from_slice(&rec.body);

        // Premaster + KeyExchange, consuming the PRNG in the blocking
        // path's exact order.
        self.prng.stir(&server_nonce);
        let premaster: Vec<u8> = match &config.kx {
            ClientKx::Rsa => {
                if n_len == 0 {
                    return Err(IsslError::Handshake("server offered no RSA key"));
                }
                let pk = PublicKey::from_bytes(&n_bytes, &e_bytes);
                let mut pm = vec![0u8; PREMASTER_LEN];
                self.prng.fill(&mut pm);
                let ct = pk
                    .encrypt(&pm, &mut PrngRng(&mut self.prng))
                    .map_err(|_| IsslError::Rsa)?;
                self.emit_record(RecordType::KeyExchange, &ct)?;
                self.transcript.extend_from_slice(&ct);
                pm
            }
            ClientKx::PreShared(psk) => {
                self.emit_record(RecordType::KeyExchange, &[])?;
                psk.clone()
            }
        };

        let keys = derive_session_keys(
            &premaster,
            &self.client_nonce,
            &server_nonce,
            config.suite.key.bytes(),
        );
        self.transcript_hash = sha1(&self.transcript);

        let my_mac = hmac_sha1(&keys.client_mac_key, &self.transcript_hash);
        self.emit_record(RecordType::Finished, &my_mac)?;
        self.server_nonce = server_nonce;
        self.keys = Some(keys);
        self.state = State::AwaitServerFinished;
        Ok(())
    }

    fn on_server_finished(&mut self, rec: &Record) -> Result<(), IsslError> {
        let config = self.client_config();
        if rec.kind == RecordType::Alert {
            return Err(IsslError::PeerAlert);
        }
        if rec.kind != RecordType::Finished {
            return Err(IsslError::Handshake("expected finished"));
        }
        let keys = self.keys.take().expect("set by on_server_hello");
        if !verify_hmac_sha1(&keys.server_mac_key, &self.transcript_hash, &rec.body) {
            return Err(IsslError::BadMac);
        }
        let enc = Rijndael::new(&keys.client_write_key, config.suite.block)
            .map_err(|_| IsslError::Handshake("bad key length"))?;
        let dec = Rijndael::new(&keys.server_write_key, config.suite.block)
            .map_err(|_| IsslError::Handshake("bad key length"))?;
        self.enc = Some(enc);
        self.dec = Some(dec);
        self.mac_out = keys.client_mac_key;
        self.mac_in = keys.server_mac_key;
        self.block_len = config.suite.block.bytes();
        self.state = State::Established;
        Ok(())
    }

    fn on_client_hello(&mut self, rec: &Record) -> Result<(), IsslError> {
        let config = self.server_config();
        if rec.kind != RecordType::ClientHello {
            return Err(IsslError::Handshake("expected client hello"));
        }
        if rec.body.len() != 2 + NONCE_LEN {
            return Err(IsslError::Handshake("bad client hello length"));
        }
        let offered = suite_from_bytes(&rec.body).ok_or(IsslError::Handshake("bad suite"))?;
        if !config.suites.contains(&offered) {
            let _ = self.emit_record(RecordType::Alert, recmap::ALERT_UNSUPPORTED_SUITE);
            return Err(IsslError::UnsupportedSuite);
        }
        self.client_nonce = rec.body[2..].to_vec();
        self.transcript.extend_from_slice(&rec.body);
        self.prng.stir(&self.client_nonce);

        let mut server_nonce = [0u8; NONCE_LEN];
        self.prng.fill(&mut server_nonce);
        let mut hello = suite_to_bytes(offered).to_vec();
        hello.extend_from_slice(&server_nonce);
        match &config.kx {
            ServerKx::Rsa(kp) => {
                let n = kp.public().n_bytes();
                let e = kp.public().e_bytes();
                hello.extend_from_slice(&(n.len() as u16).to_be_bytes());
                hello.extend_from_slice(&n);
                hello.extend_from_slice(&(e.len() as u16).to_be_bytes());
                hello.extend_from_slice(&e);
            }
            ServerKx::PreShared(_) => {
                hello.extend_from_slice(&0u16.to_be_bytes());
                hello.extend_from_slice(&0u16.to_be_bytes());
            }
        }
        self.emit_record(RecordType::ServerHello, &hello)?;
        self.transcript.extend_from_slice(&hello);
        self.server_nonce = server_nonce.to_vec();
        self.offered = Some(offered);
        self.state = State::AwaitKeyExchange;
        Ok(())
    }

    fn on_key_exchange(&mut self, rec: &Record) -> Result<(), IsslError> {
        let config = self.server_config();
        if rec.kind != RecordType::KeyExchange {
            return Err(IsslError::Handshake("expected key exchange"));
        }
        let premaster: Vec<u8> = match &config.kx {
            ServerKx::Rsa(kp) => {
                let pm = kp.decrypt(&rec.body).map_err(|_| IsslError::Rsa)?;
                self.transcript.extend_from_slice(&rec.body);
                pm
            }
            ServerKx::PreShared(psk) => psk.clone(),
        };
        let offered = self.offered.expect("set by on_client_hello");
        let keys = derive_session_keys(
            &premaster,
            &self.client_nonce,
            &self.server_nonce,
            offered.key.bytes(),
        );
        self.transcript_hash = sha1(&self.transcript);
        self.keys = Some(keys);
        self.state = State::AwaitClientFinished;
        Ok(())
    }

    fn on_client_finished(&mut self, rec: &Record) -> Result<(), IsslError> {
        if rec.kind != RecordType::Finished {
            return Err(IsslError::Handshake("expected finished"));
        }
        let keys = self.keys.take().expect("set by on_key_exchange");
        if !verify_hmac_sha1(&keys.client_mac_key, &self.transcript_hash, &rec.body) {
            let _ = self.emit_record(RecordType::Alert, recmap::ALERT_BAD_FINISHED);
            return Err(IsslError::BadMac);
        }
        let my_mac = hmac_sha1(&keys.server_mac_key, &self.transcript_hash);
        self.emit_record(RecordType::Finished, &my_mac)?;
        let offered = self.offered.expect("set by on_client_hello");
        let enc = Rijndael::new(&keys.server_write_key, offered.block)
            .map_err(|_| IsslError::Handshake("bad key length"))?;
        let dec = Rijndael::new(&keys.client_write_key, offered.block)
            .map_err(|_| IsslError::Handshake("bad key length"))?;
        self.enc = Some(enc);
        self.dec = Some(dec);
        self.mac_out = keys.server_mac_key;
        self.mac_in = keys.client_mac_key;
        self.block_len = offered.block.bytes();
        self.state = State::Established;
        Ok(())
    }

    fn step_data(&mut self) -> bool {
        let rec = match self.next_record() {
            Ok(Some(r)) => r,
            Ok(None) => return false,
            Err(RecordError::Eof) => {
                self.peer_closed = true;
                return false;
            }
            Err(e) => {
                self.error = Some(IsslError::Record(e));
                return false;
            }
        };
        match rec.kind {
            RecordType::Alert => {
                self.peer_closed = true;
                false
            }
            RecordType::Data => {
                let min = self.block_len + crypto::DIGEST_LEN;
                if rec.body.len() < min + self.block_len {
                    self.error = Some(IsslError::Corrupt);
                    return false;
                }
                let mac_at = rec.body.len() - crypto::DIGEST_LEN;
                let (payload, mac) = rec.body.split_at(mac_at);
                let mut mac_input = self.seq_in.to_be_bytes().to_vec();
                mac_input.extend_from_slice(payload);
                if !verify_hmac_sha1(&self.mac_in, &mac_input, mac) {
                    self.error = Some(IsslError::BadMac);
                    return false;
                }
                let (iv, ct) = payload.split_at(self.block_len);
                let dec = self.dec.as_ref().expect("established");
                match cbc_decrypt(dec, iv, ct) {
                    Ok(plain) => {
                        self.plain_buf.extend(plain);
                        self.seq_in += 1;
                        true
                    }
                    Err(_) => {
                        self.error = Some(IsslError::Corrupt);
                        false
                    }
                }
            }
            _ => {
                self.error = Some(IsslError::Handshake("handshake record after handshake"));
                false
            }
        }
    }
}

impl std::fmt::Debug for SessionMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionMachine")
            .field("state", &self.state)
            .field("seq_out", &self.seq_out)
            .field("seq_in", &self.seq_in)
            .field("inbox", &self.inbox.len())
            .field("outbox", &self.outbox.len())
            .finish()
    }
}

/// Adapter exposing [`Prng`] as a `rand::Rng` for the RSA padding code.
pub(crate) struct PrngRng<'a>(pub(crate) &'a mut Prng);

impl rand::RngCore for PrngRng<'_> {
    fn next_u32(&mut self) -> u32 {
        (self.0.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.fill(dest);
        Ok(())
    }
}
