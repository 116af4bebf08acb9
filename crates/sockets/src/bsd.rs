//! The BSD sockets API — the interface issl was written against on Unix
//! (the paper's Figure 2a): `socket` / `bind` / `listen` / `accept` /
//! `connect` / `send` / `recv` / `close` over small-integer descriptors,
//! with `sockaddr_in` structures holding network-byte-order fields.
//!
//! Calls that block on Unix (`accept`, `recv`, `connect`) pseudo-block
//! here through a [`Blocking`] policy: either pumping the simulated world
//! or yielding to the costatement scheduler.

use netsim::{htonl, htons, ntohl, ntohs, Endpoint, HostId, Ipv4, Recv, SocketId, TcpState, World};

use crate::net::{Blocking, Net};
use crate::poll::Readiness;

/// `AF_INET`.
pub const AF_INET: i32 = 2;
/// `SOCK_STREAM`.
pub const SOCK_STREAM: i32 = 1;
/// `INADDR_ANY`, in host byte order (pass through [`htonl`] as usual).
pub const INADDR_ANY: u32 = 0;

/// The classic `sockaddr_in`, fields in network byte order, built with
/// `htons`/`htonl` exactly as the paper's Figure 2a does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SockAddrIn {
    /// Address family (`AF_INET`).
    pub sin_family: u16,
    /// Port in network byte order.
    pub sin_port: u16,
    /// Address in network byte order.
    pub sin_addr: u32,
}

impl SockAddrIn {
    /// Builds an address the way C code does.
    pub fn new(ip: Ipv4, port: u16) -> SockAddrIn {
        SockAddrIn {
            sin_family: AF_INET as u16,
            sin_port: htons(port),
            sin_addr: htonl(ip.0),
        }
    }

    /// The endpoint this address denotes.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::new(Ipv4(ntohl(self.sin_addr)), ntohs(self.sin_port))
    }
}

/// Unix-style error numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Errno {
    /// Bad file descriptor.
    Ebadf,
    /// Invalid argument / wrong socket state.
    Einval,
    /// Address already in use.
    Eaddrinuse,
    /// Connection reset by peer.
    Econnreset,
    /// Connection refused.
    Econnrefused,
    /// Operation timed out.
    Etimedout,
}

impl std::fmt::Display for Errno {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Errno::Ebadf => "EBADF",
            Errno::Einval => "EINVAL",
            Errno::Eaddrinuse => "EADDRINUSE",
            Errno::Econnreset => "ECONNRESET",
            Errno::Econnrefused => "ECONNREFUSED",
            Errno::Etimedout => "ETIMEDOUT",
        };
        write!(f, "{name}")
    }
}

impl std::error::Error for Errno {}

/// A file descriptor in a [`UnixProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub i32);

#[derive(Debug, Clone, Copy)]
enum FdState {
    Fresh,
    Bound(u16),
    Listening(SocketId),
    Connected(SocketId),
    Closed,
}

/// A Unix process's view of the network: a descriptor table over one
/// host's stack.
///
/// The paper's host-side service `fork`s per connection; model that by
/// creating one `UnixProcess` per costatement (they share the host).
pub struct UnixProcess {
    net: Net,
    host: HostId,
    blocking: Blocking,
    fds: Vec<FdState>,
    /// Rounds a pseudo-blocking call spins before giving up.
    pub timeout_rounds: usize,
}

impl UnixProcess {
    /// Creates a process that pumps the world when it blocks.
    pub fn new(net: &Net, host: HostId) -> UnixProcess {
        UnixProcess {
            net: net.clone(),
            host,
            blocking: Blocking::Pump,
            fds: Vec::new(),
            timeout_rounds: 1_000_000,
        }
    }

    /// Creates a process that yields to the costatement scheduler when it
    /// blocks (use inside [`dynamicc::Scheduler`] bodies).
    pub fn in_costate(net: &Net, host: HostId, co: dynamicc::Co) -> UnixProcess {
        UnixProcess {
            net: net.clone(),
            host,
            blocking: Blocking::Yield(co),
            fds: Vec::new(),
            timeout_rounds: 1_000_000,
        }
    }

    /// The host this process runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The network handle.
    pub fn net(&self) -> &Net {
        &self.net
    }

    fn fd_state(&mut self, fd: Fd) -> Result<&mut FdState, Errno> {
        self.fds.get_mut(fd.0 as usize).ok_or(Errno::Ebadf)
    }

    fn fd_ref(&self, fd: Fd) -> Result<&FdState, Errno> {
        self.fds.get(fd.0 as usize).ok_or(Errno::Ebadf)
    }

    fn readiness_of(w: &World, state: &FdState) -> Readiness {
        match state {
            FdState::Listening(sid) => Readiness {
                accept_ready: w.tcp_pending(*sid) > 0,
                ..Readiness::NONE
            },
            FdState::Connected(sid) => {
                let closed = w.tcp_peer_closed(*sid);
                Readiness {
                    readable: w.tcp_available(*sid) > 0 || closed,
                    writable: w.tcp_send_room(*sid) > 0,
                    accept_ready: false,
                    peer_closed: closed,
                }
            }
            _ => Readiness::NONE,
        }
    }

    /// `poll(2)`-style snapshot for one descriptor, computed from netsim
    /// socket state — never pumps the world.
    ///
    /// # Errors
    ///
    /// `EBADF` on a bad descriptor.
    pub fn readiness(&self, fd: Fd) -> Result<Readiness, Errno> {
        let state = self.fd_ref(fd)?;
        Ok(self.net.with(|w| Self::readiness_of(w, state)))
    }

    /// Polls a descriptor set, returning only the ready entries.
    ///
    /// # Errors
    ///
    /// `EBADF` if any descriptor is bad.
    pub fn poll(&self, fds: &[Fd]) -> Result<Vec<(Fd, Readiness)>, Errno> {
        let mut out = Vec::new();
        for &fd in fds {
            let r = self.readiness(fd)?;
            if r.any() {
                out.push((fd, r));
            }
        }
        Ok(out)
    }

    /// Pseudo-blocking poll: waits (pumping the world or yielding to the
    /// scheduler, per this process's [`Blocking`] policy) until at least
    /// one descriptor is ready, then returns the ready set.
    ///
    /// # Errors
    ///
    /// `EBADF` on a bad descriptor; `ETIMEDOUT` if nothing becomes ready
    /// within the timeout budget.
    pub fn poll_wait(&mut self, fds: &[Fd]) -> Result<Vec<(Fd, Readiness)>, Errno> {
        let mut states = Vec::with_capacity(fds.len());
        for &fd in fds {
            states.push((fd, *self.fd_ref(fd)?));
        }
        let ok = self.blocking.wait_until(
            &self.net,
            |w| states.iter().any(|(_, st)| Self::readiness_of(w, st).any()),
            self.timeout_rounds,
        );
        if !ok {
            return Err(Errno::Etimedout);
        }
        Ok(self.net.with(|w| {
            states
                .iter()
                .map(|&(fd, ref st)| (fd, Self::readiness_of(w, st)))
                .filter(|(_, r)| r.any())
                .collect()
        }))
    }

    /// `socket(AF_INET, SOCK_STREAM, 0)`.
    ///
    /// # Errors
    ///
    /// `EINVAL` for any other domain/type combination.
    pub fn socket(&mut self, domain: i32, ty: i32, _protocol: i32) -> Result<Fd, Errno> {
        if domain != AF_INET || ty != SOCK_STREAM {
            return Err(Errno::Einval);
        }
        self.fds.push(FdState::Fresh);
        Ok(Fd(self.fds.len() as i32 - 1))
    }

    /// `bind(fd, addr)`: records the local port.
    ///
    /// # Errors
    ///
    /// `EBADF` / `EINVAL` on a bad descriptor or state.
    pub fn bind(&mut self, fd: Fd, addr: &SockAddrIn) -> Result<(), Errno> {
        let port = ntohs(addr.sin_port);
        match self.fd_state(fd)? {
            s @ FdState::Fresh => {
                *s = FdState::Bound(port);
                Ok(())
            }
            _ => Err(Errno::Einval),
        }
    }

    /// `listen(fd, backlog)`.
    ///
    /// # Errors
    ///
    /// `EADDRINUSE` if another listener owns the port; `EINVAL` if the
    /// descriptor is not bound.
    pub fn listen(&mut self, fd: Fd, backlog: usize) -> Result<(), Errno> {
        let host = self.host;
        let net = self.net.clone();
        let port = match self.fd_state(fd)? {
            FdState::Bound(p) => *p,
            _ => return Err(Errno::Einval),
        };
        let sid = net
            .with(|w| w.tcp_listen(host, port, backlog))
            .map_err(|_| Errno::Eaddrinuse)?;
        *self.fd_state(fd)? = FdState::Listening(sid);
        Ok(())
    }

    /// `accept(fd)`: pseudo-blocks until a connection is established,
    /// returning a new descriptor for it.
    ///
    /// # Errors
    ///
    /// `EINVAL` if the descriptor is not listening; `ETIMEDOUT` if no
    /// connection arrives within the timeout budget.
    pub fn accept(&mut self, fd: Fd) -> Result<Fd, Errno> {
        let sid = match self.fd_state(fd)? {
            FdState::Listening(s) => *s,
            _ => return Err(Errno::Einval),
        };
        let ok =
            self.blocking
                .wait_until(&self.net, |w| w.tcp_pending(sid) > 0, self.timeout_rounds);
        if !ok {
            return Err(Errno::Etimedout);
        }
        let conn = self.net.with(|w| w.tcp_accept(sid)).ok_or(Errno::Einval)?;
        Ok(self.adopt(conn))
    }

    /// Takes over a connection accepted on a listener this process does
    /// not own, returning a descriptor for it: what a `fork`ed child
    /// inherits from the parent's `accept`.
    pub fn adopt(&mut self, conn: SocketId) -> Fd {
        self.fds.push(FdState::Connected(conn));
        Fd(self.fds.len() as i32 - 1)
    }

    /// `connect(fd, addr)`: active open, pseudo-blocking until
    /// established or refused.
    ///
    /// # Errors
    ///
    /// `ECONNREFUSED` on RST, `ETIMEDOUT` when the handshake never
    /// completes.
    pub fn connect(&mut self, fd: Fd, addr: &SockAddrIn) -> Result<(), Errno> {
        match self.fd_state(fd)? {
            FdState::Fresh | FdState::Bound(_) => {}
            _ => return Err(Errno::Einval),
        }
        let host = self.host;
        let remote = addr.endpoint();
        let sid = self.net.with(|w| w.tcp_connect(host, remote));
        let ok = self.blocking.wait_until(
            &self.net,
            |w| w.tcp_established(sid) || w.tcp_state(sid) == TcpState::Closed,
            self.timeout_rounds,
        );
        if !ok {
            return Err(Errno::Etimedout);
        }
        if !self.net.with(|w| w.tcp_established(sid)) {
            return Err(Errno::Econnrefused);
        }
        *self.fd_state(fd)? = FdState::Connected(sid);
        Ok(())
    }

    /// `send(fd, buf, 0)`: queues data, pseudo-blocking until the stack
    /// accepts at least one byte. Empty data returns 0 at once, as POSIX
    /// `send` does.
    ///
    /// # Errors
    ///
    /// `ECONNRESET` after an RST; `EINVAL` in a non-connected state.
    pub fn send(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        let sid = match self.fd_state(fd)? {
            FdState::Connected(s) => *s,
            _ => return Err(Errno::Einval),
        };
        if data.is_empty() {
            return Ok(0);
        }
        let mut sent = 0;
        while sent == 0 {
            sent = self
                .net
                .with(|w| w.tcp_send(sid, data))
                .map_err(|e| match e {
                    netsim::NetError::ConnectionReset => Errno::Econnreset,
                    _ => Errno::Einval,
                })?;
            if sent == 0 {
                let ok = self.blocking.wait_until(
                    &self.net,
                    |w| w.tcp_unacked(sid) < netsim::SEND_BUFFER,
                    self.timeout_rounds,
                );
                if !ok {
                    return Err(Errno::Etimedout);
                }
            }
        }
        Ok(sent)
    }

    /// Sends the whole buffer, pseudo-blocking as needed.
    ///
    /// # Errors
    ///
    /// As [`UnixProcess::send`].
    pub fn send_all(&mut self, fd: Fd, mut data: &[u8]) -> Result<(), Errno> {
        while !data.is_empty() {
            let n = self.send(fd, data)?;
            data = &data[n..];
        }
        Ok(())
    }

    /// `recv(fd, buf, 0)`: pseudo-blocks for data; returns 0 at orderly
    /// end of stream.
    ///
    /// # Errors
    ///
    /// `ECONNRESET` after an RST; `ETIMEDOUT` if nothing arrives.
    pub fn recv(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno> {
        let sid = match self.fd_state(fd)? {
            FdState::Connected(s) => *s,
            _ => return Err(Errno::Einval),
        };
        let ok = self.blocking.wait_until(
            &self.net,
            |w| {
                w.tcp_available(sid) > 0
                    || matches!(
                        {
                            let mut probe = [0u8; 0];
                            w.tcp_recv(sid, &mut probe)
                        },
                        Recv::Closed | Recv::Reset
                    )
            },
            self.timeout_rounds,
        );
        if !ok {
            return Err(Errno::Etimedout);
        }
        match self.net.with(|w| w.tcp_recv(sid, buf)) {
            Recv::Data(n) => Ok(n),
            Recv::Closed => Ok(0),
            Recv::Reset => Err(Errno::Econnreset),
            Recv::WouldBlock => Ok(0),
        }
    }

    /// `close(fd)`.
    ///
    /// # Errors
    ///
    /// `EBADF` on a bad descriptor.
    pub fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        let state = self.fd_state(fd)?;
        match state {
            FdState::Connected(sid) | FdState::Listening(sid) => {
                let sid = *sid;
                *state = FdState::Closed;
                let _ = self.net.with(|w| w.tcp_close(sid));
            }
            _ => *state = FdState::Closed,
        }
        Ok(())
    }

    /// Bytes readable without blocking (a `FIONREAD` analogue).
    pub fn available(&mut self, fd: Fd) -> Result<usize, Errno> {
        let sid = match self.fd_state(fd)? {
            FdState::Connected(s) => *s,
            _ => return Err(Errno::Einval),
        };
        Ok(self.net.with(|w| w.tcp_available(sid)))
    }
}

impl std::fmt::Debug for UnixProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnixProcess")
            .field("host", &self.host)
            .field("fds", &self.fds.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LinkParams;

    #[test]
    fn sockaddr_uses_network_byte_order() {
        let addr = SockAddrIn::new(Ipv4::new(10, 0, 0, 1), 4433);
        assert_eq!(addr.sin_port, htons(4433));
        assert_eq!(addr.endpoint().port, 4433);
        assert_eq!(addr.endpoint().ip, Ipv4::new(10, 0, 0, 1));
    }

    #[test]
    fn socket_rejects_non_inet_stream() {
        let net = Net::new(1);
        let h = net.add_host(Ipv4::new(1, 1, 1, 1));
        let mut p = UnixProcess::new(&net, h);
        assert_eq!(p.socket(99, SOCK_STREAM, 0), Err(Errno::Einval));
        assert_eq!(p.socket(AF_INET, 99, 0), Err(Errno::Einval));
        assert!(p.socket(AF_INET, SOCK_STREAM, 0).is_ok());
    }

    #[test]
    fn bind_requires_fresh_socket() {
        let net = Net::new(1);
        let h = net.add_host(Ipv4::new(1, 1, 1, 1));
        let mut p = UnixProcess::new(&net, h);
        let fd = p.socket(AF_INET, SOCK_STREAM, 0).unwrap();
        let addr = SockAddrIn::new(Ipv4::ANY, 80);
        p.bind(fd, &addr).unwrap();
        assert_eq!(p.bind(fd, &addr), Err(Errno::Einval));
    }

    #[test]
    fn echo_over_bsd_api_single_thread() {
        let net = Net::new(5);
        let sh = net.add_host(Ipv4::new(10, 0, 0, 1));
        let ch = net.add_host(Ipv4::new(10, 0, 0, 2));
        net.link(sh, ch, LinkParams::ethernet_10base_t());

        let mut server = UnixProcess::new(&net, sh);
        let lfd = server.socket(AF_INET, SOCK_STREAM, 0).unwrap();
        server.bind(lfd, &SockAddrIn::new(Ipv4::ANY, 7)).unwrap();
        server.listen(lfd, 4).unwrap();

        let mut client = UnixProcess::new(&net, ch);
        let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();
        client
            .connect(cfd, &SockAddrIn::new(Ipv4::new(10, 0, 0, 1), 7))
            .unwrap();
        client.send_all(cfd, b"hello bsd").unwrap();

        let afd = server.accept(lfd).unwrap();
        let mut buf = [0u8; 64];
        let n = server.recv(afd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello bsd");
        server.send_all(afd, &buf[..n]).unwrap();

        let n = client.recv(cfd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello bsd");

        client.close(cfd).unwrap();
        let n = server.recv(afd, &mut buf).unwrap();
        assert_eq!(n, 0, "orderly EOF after peer close");
    }

    #[test]
    fn empty_send_returns_zero_at_once() {
        // On a thread, so a send that never returns fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let net = Net::new(9);
            let sh = net.add_host(Ipv4::new(10, 0, 0, 1));
            let ch = net.add_host(Ipv4::new(10, 0, 0, 2));
            net.link(sh, ch, LinkParams::lan_100m());
            let mut server = UnixProcess::new(&net, sh);
            let lfd = server.socket(AF_INET, SOCK_STREAM, 0).unwrap();
            server.bind(lfd, &SockAddrIn::new(Ipv4::ANY, 7)).unwrap();
            server.listen(lfd, 1).unwrap();
            let mut client = UnixProcess::new(&net, ch);
            let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();
            client
                .connect(cfd, &SockAddrIn::new(Ipv4::new(10, 0, 0, 1), 7))
                .unwrap();
            let _ = tx.send((client.send(cfd, &[]), client.send_all(cfd, &[])));
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("send(fd, &[]) returned");
        assert_eq!(got, (Ok(0), Ok(())));
    }

    #[test]
    fn adopted_connection_speaks_like_an_accepted_one() {
        let net = Net::new(6);
        let sh = net.add_host(Ipv4::new(10, 0, 0, 1));
        let ch = net.add_host(Ipv4::new(10, 0, 0, 2));
        net.link(sh, ch, LinkParams::lan_100m());
        // A listener no process owns, as the workers of a forking server
        // share one.
        let listener = net.with(|w| w.tcp_listen(sh, 7, 1)).unwrap();

        let mut client = UnixProcess::new(&net, ch);
        let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();
        client
            .connect(cfd, &SockAddrIn::new(Ipv4::new(10, 0, 0, 1), 7))
            .unwrap();
        client.send_all(cfd, b"inherited").unwrap();

        let mut child = UnixProcess::new(&net, sh);
        assert!(Blocking::Pump.wait_until(&net, |w| w.tcp_pending(listener) > 0, 100_000));
        let conn = net
            .with(|w| w.tcp_accept(listener))
            .expect("pending connection");
        let fd = child.adopt(conn);
        let mut buf = [0u8; 16];
        let n = child.recv(fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"inherited");
        child.send_all(fd, &buf[..n]).unwrap();
        child.close(fd).unwrap();

        let n = client.recv(cfd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"inherited");
        assert_eq!(client.recv(cfd, &mut buf), Ok(0), "orderly EOF after close");
    }
}
