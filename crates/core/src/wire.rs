//! The transport abstraction issl layers on: "issl is a cryptographic
//! library that layers on top of the Unix sockets layer" (§2). The same
//! record machinery runs over a BSD descriptor on the host and over a
//! Dynamic C socket on the RMC2000 — the two transports whose API gap is
//! the paper's Figure 2 — and each API has exactly one [`Wire`]:
//!
//! * [`BsdWire`] drives a [`UnixProcess`] descriptor; whether a blocked
//!   call pumps the world or yields to the scheduler is the process's
//!   [`sockets::Blocking`] policy, not the wire's.
//! * [`DynicWire`] drives a Dynamic C socket from a handler costatement.

use crypto::Size;
use dynamicc::Co;
use sockets::bsd::{Errno, Fd, UnixProcess};
use sockets::dynic::{Stack, TcpSock};

use crate::session::CipherSuite;

/// Encodes a cipher suite as the two-byte geometry field both hello
/// messages carry (`[key words, block words]`). The single encoding
/// authority for the blocking wrapper and the sans-I/O machine alike.
pub fn suite_to_bytes(s: CipherSuite) -> [u8; 2] {
    [s.key.words() as u8, s.block.words() as u8]
}

/// Decodes the two-byte suite geometry; `None` for sizes Rijndael does
/// not have.
pub fn suite_from_bytes(b: &[u8]) -> Option<CipherSuite> {
    let key = match b.first()? {
        4 => Size::Bits128,
        6 => Size::Bits192,
        8 => Size::Bits256,
        _ => return None,
    };
    let block = match b.get(1)? {
        4 => Size::Bits128,
        6 => Size::Bits192,
        8 => Size::Bits256,
        _ => return None,
    };
    Some(CipherSuite { key, block })
}

/// Transport-level failures surfaced to the record layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The connection is gone (reset, refused, or torn down).
    ConnectionLost,
    /// Clean end of stream in the middle of a record.
    UnexpectedEof,
    /// The wait budget ran out.
    Timeout,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::ConnectionLost => "connection lost",
            WireError::UnexpectedEof => "unexpected end of stream",
            WireError::Timeout => "transport timeout",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for WireError {}

/// A byte-stream transport the record layer can run over.
pub trait Wire {
    /// Writes the whole buffer.
    ///
    /// # Errors
    ///
    /// [`WireError::ConnectionLost`] when the stream dies mid-write.
    fn write_all(&mut self, data: &[u8]) -> Result<(), WireError>;

    /// Reads at least one byte into `buf` (pseudo-blocking); `Ok(0)` means
    /// a clean end of stream.
    ///
    /// # Errors
    ///
    /// [`WireError::ConnectionLost`] / [`WireError::Timeout`].
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, WireError>;

    /// Reads exactly `buf.len()` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when the stream ends early.
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), WireError> {
        let mut off = 0;
        while off < buf.len() {
            let n = self.read(&mut buf[off..])?;
            if n == 0 {
                return Err(WireError::UnexpectedEof);
            }
            off += n;
        }
        Ok(())
    }
}

/// A BSD descriptor as a [`Wire`] (the host profile's transport).
pub struct BsdWire<'a> {
    /// The owning process.
    pub process: &'a mut UnixProcess,
    /// The connected descriptor.
    pub fd: Fd,
}

impl Wire for BsdWire<'_> {
    fn write_all(&mut self, data: &[u8]) -> Result<(), WireError> {
        self.process.send_all(self.fd, data).map_err(|e| match e {
            Errno::Etimedout => WireError::Timeout,
            _ => WireError::ConnectionLost,
        })
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<usize, WireError> {
        self.process.recv(self.fd, buf).map_err(|e| match e {
            Errno::Etimedout => WireError::Timeout,
            _ => WireError::ConnectionLost,
        })
    }
}

/// A Dynamic C socket as a [`Wire`] (the embedded profile's transport),
/// read and written from a handler costatement: a blocked operation
/// yields, and the `tcp_tick` costatement advances the stack (Figure 3).
pub struct DynicWire {
    /// The TCP/IP stack of the board.
    pub stack: Stack,
    /// The socket slot carrying the connection.
    pub sock: TcpSock,
    /// The handler costatement, yielded while blocked.
    pub co: Co,
}

/// Yields a blocked [`DynicWire`] call may make in a row before it gives
/// up with [`WireError::Timeout`].
const DYNIC_MAX_YIELDS: u32 = 10_000_000;

impl Wire for DynicWire {
    fn write_all(&mut self, mut data: &[u8]) -> Result<(), WireError> {
        let mut idle = 0u32;
        while !data.is_empty() {
            match self.stack.sock_write(self.sock, data) {
                Ok(0) => {
                    self.co.yield_now();
                    idle += 1;
                    if idle > DYNIC_MAX_YIELDS {
                        return Err(WireError::Timeout);
                    }
                }
                Ok(n) => {
                    data = &data[n..];
                    idle = 0;
                }
                Err(_) => return Err(WireError::ConnectionLost),
            }
        }
        Ok(())
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<usize, WireError> {
        let mut idle = 0u32;
        loop {
            match self.stack.sock_read(self.sock, buf) {
                Ok(0) => {
                    if self.stack.sock_peer_closed(self.sock) {
                        return Ok(0);
                    }
                    self.co.yield_now();
                    idle += 1;
                    if idle > DYNIC_MAX_YIELDS {
                        return Err(WireError::Timeout);
                    }
                }
                Ok(n) => return Ok(n),
                Err(_) => return Err(WireError::ConnectionLost),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory pipe pair, to test the `Wire` defaults without a
    /// network.
    #[derive(Debug, Default)]
    struct PipePair {
        a_to_b: std::collections::VecDeque<u8>,
        b_to_a: std::collections::VecDeque<u8>,
    }

    /// One end of a [`PipePair`].
    struct PipeEnd<'a> {
        pair: &'a std::cell::RefCell<PipePair>,
        is_a: bool,
    }

    impl PipePair {
        /// Creates the shared state; wrap in a `RefCell` and call
        /// [`PipePair::ends`].
        fn new() -> std::cell::RefCell<PipePair> {
            std::cell::RefCell::new(PipePair::default())
        }

        /// Borrows the two ends.
        fn ends(cell: &std::cell::RefCell<PipePair>) -> (PipeEnd<'_>, PipeEnd<'_>) {
            (
                PipeEnd {
                    pair: cell,
                    is_a: true,
                },
                PipeEnd {
                    pair: cell,
                    is_a: false,
                },
            )
        }
    }

    impl Wire for PipeEnd<'_> {
        fn write_all(&mut self, data: &[u8]) -> Result<(), WireError> {
            let mut p = self.pair.borrow_mut();
            let q = if self.is_a {
                &mut p.a_to_b
            } else {
                &mut p.b_to_a
            };
            q.extend(data);
            Ok(())
        }

        fn read(&mut self, buf: &mut [u8]) -> Result<usize, WireError> {
            let mut p = self.pair.borrow_mut();
            let q = if self.is_a {
                &mut p.b_to_a
            } else {
                &mut p.a_to_b
            };
            if q.is_empty() {
                return Err(WireError::UnexpectedEof); // pipes are synchronous in tests
            }
            let n = buf.len().min(q.len());
            for b in buf.iter_mut().take(n) {
                *b = q.pop_front().expect("length checked");
            }
            Ok(n)
        }
    }

    #[test]
    fn pipe_moves_bytes_between_ends() {
        let cell = PipePair::new();
        let (mut a, mut b) = PipePair::ends(&cell);
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 8];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        b.write_all(b"pong").unwrap();
        let n = a.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong");
    }

    #[test]
    fn read_exact_assembles_fragments() {
        let cell = PipePair::new();
        let (mut a, mut b) = PipePair::ends(&cell);
        a.write_all(b"0123456789").unwrap();
        let mut buf = [0u8; 10];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"0123456789");
    }

    #[test]
    fn read_exact_reports_eof() {
        let cell = PipePair::new();
        let (mut a, mut b) = PipePair::ends(&cell);
        a.write_all(b"123").unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(b.read_exact(&mut buf), Err(WireError::UnexpectedEof));
    }
}
