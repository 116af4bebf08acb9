//! Adversarial tests of the secure channel: tampering, replay,
//! truncation and garbage must all be detected — never panic, never
//! yield wrong plaintext.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use crypto::Prng;
use issl::record::{RecordError, MAX_RECORD};
use issl::wire::{Wire, WireError};
use issl::{
    CipherSuite, ClientConfig, ClientKx, IsslError, ServerConfig, ServerKx, Session,
    SessionMachine,
};

// ---------------------------------------------------------------------
// a blocking in-memory wire so both handshake halves can run on threads
// ---------------------------------------------------------------------

struct ChannelWire {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    buf: VecDeque<u8>,
}

fn wire_pair() -> (ChannelWire, ChannelWire) {
    let (atx, arx) = channel();
    let (btx, brx) = channel();
    (
        ChannelWire {
            tx: atx,
            rx: brx,
            buf: VecDeque::new(),
        },
        ChannelWire {
            tx: btx,
            rx: arx,
            buf: VecDeque::new(),
        },
    )
}

impl Wire for ChannelWire {
    fn write_all(&mut self, data: &[u8]) -> Result<(), WireError> {
        self.tx
            .send(data.to_vec())
            .map_err(|_| WireError::ConnectionLost)
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<usize, WireError> {
        while self.buf.is_empty() {
            match self.rx.recv_timeout(Duration::from_secs(10)) {
                Ok(chunk) => self.buf.extend(chunk),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => return Err(WireError::Timeout),
                Err(_) => return Ok(0), // peer hung up: clean EOF
            }
        }
        let n = buf.len().min(self.buf.len());
        for b in buf.iter_mut().take(n) {
            *b = self.buf.pop_front().expect("length checked");
        }
        Ok(n)
    }
}

/// A wire that can corrupt or replay frames once armed.
struct HostileWire {
    inner: ChannelWire,
    tamper: Arc<AtomicBool>,
    replay: Arc<AtomicBool>,
    last_frame: Option<Vec<u8>>,
}

impl Wire for HostileWire {
    fn write_all(&mut self, data: &[u8]) -> Result<(), WireError> {
        let mut frame = data.to_vec();
        if self.tamper.load(Ordering::SeqCst) && frame.len() > 8 {
            let idx = frame.len() - 5; // inside ciphertext/MAC, not the header
            frame[idx] ^= 0x80;
        }
        self.inner.write_all(&frame)?;
        if self.replay.load(Ordering::SeqCst) {
            if let Some(prev) = self.last_frame.take() {
                self.inner.write_all(&prev)?;
            }
            self.last_frame = Some(frame);
        }
        Ok(())
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<usize, WireError> {
        self.inner.read(buf)
    }
}

fn psk_configs() -> (ClientConfig, ServerConfig) {
    let psk = b"adversarial tests psk".to_vec();
    (
        ClientConfig {
            suite: CipherSuite::AES128,
            kx: ClientKx::PreShared(psk.clone()),
        },
        ServerConfig {
            suites: vec![CipherSuite::AES128],
            kx: ServerKx::PreShared(psk),
        },
    )
}

#[test]
fn tampered_record_is_rejected_with_bad_mac() {
    let (cw, sw) = wire_pair();
    let tamper = Arc::new(AtomicBool::new(false));
    let hostile = HostileWire {
        inner: cw,
        tamper: Arc::clone(&tamper),
        replay: Arc::new(AtomicBool::new(false)),
        last_frame: None,
    };
    let (ccfg, scfg) = psk_configs();

    let server = std::thread::spawn(move || {
        let mut s = Session::server_handshake(sw, &scfg, Prng::new(2)).expect("server handshake");
        let mut buf = [0u8; 256];
        s.secure_read(&mut buf)
    });

    let mut c = Session::client_handshake(hostile, &ccfg, Prng::new(1)).expect("client handshake");
    tamper.store(true, Ordering::SeqCst);
    c.secure_write(b"this record will be flipped in flight")
        .expect("write");

    let outcome = server.join().expect("server thread");
    assert_eq!(outcome, Err(IsslError::BadMac));
}

#[test]
fn replayed_record_is_rejected() {
    let (cw, sw) = wire_pair();
    let replay = Arc::new(AtomicBool::new(false));
    let hostile = HostileWire {
        inner: cw,
        tamper: Arc::new(AtomicBool::new(false)),
        replay: Arc::clone(&replay),
        last_frame: None,
    };
    let (ccfg, scfg) = psk_configs();

    let server = std::thread::spawn(move || {
        let mut s = Session::server_handshake(sw, &scfg, Prng::new(4)).expect("server handshake");
        let mut buf = [0u8; 256];
        let first = s.secure_read(&mut buf);
        let second = s.secure_read(&mut buf);
        let replayed = s.secure_read(&mut buf);
        (first, second, replayed)
    });

    let mut c = Session::client_handshake(hostile, &ccfg, Prng::new(3)).expect("client handshake");
    replay.store(true, Ordering::SeqCst);
    c.secure_write(b"first").expect("write 1");
    // the hostile wire retransmits record #1 right after record #2
    c.secure_write(b"second").expect("write 2");

    let (first, second, replayed) = server.join().expect("server thread");
    assert_eq!(first, Ok(5), "the original record is fine");
    assert_eq!(second, Ok(6), "the next record is fine");
    assert_eq!(
        replayed,
        Err(IsslError::BadMac),
        "a replayed record fails the sequence-bound MAC"
    );
}

#[test]
fn sessions_with_different_psks_fail_cleanly() {
    let (cw, sw) = wire_pair();
    let server = std::thread::spawn(move || {
        let cfg = ServerConfig {
            suites: vec![CipherSuite::AES128],
            kx: ServerKx::PreShared(b"server secret".to_vec()),
        };
        Session::server_handshake(sw, &cfg, Prng::new(6)).map(|_| ())
    });
    let cfg = ClientConfig {
        suite: CipherSuite::AES128,
        kx: ClientKx::PreShared(b"client secret".to_vec()),
    };
    let client = Session::client_handshake(cw, &cfg, Prng::new(5)).map(|_| ());
    let server = server.join().expect("thread");
    assert!(client.is_err() || server.is_err(), "mismatched keys fail");
    assert_eq!(server, Err(IsslError::BadMac), "server detects it first");
}

// ---------------------------------------------------------------------
// record-layer fuzz: malformed frames never panic
// ---------------------------------------------------------------------

/// A pre-shared-key server machine: the record framer every profile runs.
fn record_server() -> SessionMachine {
    let config = ServerConfig {
        suites: vec![CipherSuite::AES128],
        kx: ServerKx::PreShared(b"framing".to_vec()),
    };
    SessionMachine::server(config, Prng::new(0xF00D))
}

#[test]
fn truncated_records_error_cleanly() {
    // A full record (a client's hello) followed by a truncated one: a
    // data record header claiming 0x10xx bytes, cut off by EOF.
    let config = ClientConfig {
        suite: CipherSuite::AES128,
        kx: ClientKx::PreShared(b"framing".to_vec()),
    };
    let mut bytes = SessionMachine::client(config, Prng::new(1)).take_output();
    bytes.extend_from_slice(&[5, 0x10]);
    let mut server = record_server();
    server.feed(&bytes).expect("the complete record is accepted");
    assert!(server.has_output(), "the hello was answered");
    server.feed_eof();
    assert_eq!(
        server.error(),
        Some(&IsslError::Record(RecordError::Wire(WireError::UnexpectedEof)))
    );
}

#[test]
fn oversized_length_field_is_rejected() {
    let len = (MAX_RECORD + 1) as u16;
    let mut frame = vec![5u8];
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend(std::iter::repeat_n(0u8, 16));
    assert_eq!(
        record_server().feed(&frame),
        Err(IsslError::Record(RecordError::TooLong(MAX_RECORD + 1)))
    );
}

#[test]
fn random_garbage_never_panics_the_record_layer() {
    let mut prng = Prng::new(0xFA22);
    for _ in 0..500 {
        let len = (prng.next_u64() % 64) as usize + 1;
        let mut junk = vec![0u8; len];
        prng.fill(&mut junk);
        let mut server = record_server();
        let _ = server.feed(&junk);
        server.feed_eof();
        // Never a panic, and garbage followed by EOF never completes a
        // handshake: the machine always ends with an error.
        assert!(server.error().is_some(), "{junk:02x?}");
        assert!(!server.is_established());
    }
}

#[test]
fn handshake_against_garbage_speaker_fails_cleanly() {
    // A "server" that answers the hello with noise.
    let (cw, mut sw) = wire_pair();
    let server = std::thread::spawn(move || {
        let mut drop_buf = [0u8; 512];
        let _ = sw.read(&mut drop_buf); // swallow the client hello
        let _ = sw.write_all(&[0xFF, 0x00, 0x04, 1, 2, 3, 4]); // bad type
    });
    let (ccfg, _scfg) = psk_configs();
    let outcome = Session::client_handshake(cw, &ccfg, Prng::new(9)).map(|_| ());
    server.join().expect("thread");
    assert!(matches!(
        outcome,
        Err(IsslError::Record(RecordError::BadType(0xFF)))
    ));
}
