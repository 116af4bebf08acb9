//! Raw host attach point: a shareable handle to one host inside a
//! [`World`].
//!
//! Code outside this crate needs to *be* a host on the simulated network
//! (the `rmc2000` fleet does, for each board's NIC): accept connections
//! and move bytes — all through one owned handle while the test harness
//! keeps a second handle on the same world for the remote peers.
//! [`SimHost`] packages an `Rc<RefCell<World>>` plus a [`HostId`] behind
//! a borrow-free API so its owner can hold it without naming the
//! interior mutability.
//!
//! Everything here forwards to the [`World`] socket API; determinism is
//! inherited ([`World::run_for`] is granularity-independent, so time may
//! advance in whatever increments the clock owner produces).
//!
//! # Time ownership
//!
//! No `SimHost` call advances the shared clock: a host reads `now` and
//! moves bytes. Exactly one party owns time — whoever assembled the world
//! and calls [`World::run_for`] on it (for the boards, the
//! `rmc2000::fleet` scheduler).

use std::cell::RefCell;
use std::rc::Rc;

use crate::addr::{Endpoint, Ipv4};
use crate::tcp::{HostId, SocketId};
use crate::world::{NetError, Recv, World};

/// A shareable handle to one host in a shared [`World`].
#[derive(Clone)]
pub struct SimHost {
    world: Rc<RefCell<World>>,
    host: HostId,
}

impl SimHost {
    /// Adds a new host to `world` and returns its handle. The world keeps
    /// no host names; `_name` only labels the call site.
    pub fn attach(world: &Rc<RefCell<World>>, _name: &str, ip: Ipv4) -> SimHost {
        let host = world.borrow_mut().add_host(ip);
        SimHost {
            world: Rc::clone(world),
            host,
        }
    }

    /// The underlying world (shared).
    pub fn world(&self) -> Rc<RefCell<World>> {
        Rc::clone(&self.world)
    }

    /// The host this handle speaks for.
    pub fn id(&self) -> HostId {
        self.host
    }

    /// This host's IP address.
    pub fn ip(&self) -> Ipv4 {
        self.world.borrow().host_ip(self.host)
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.world.borrow().now()
    }

    /// Registers (or fetches) a counter in the world's telemetry registry.
    pub fn counter(&self, name: &str) -> telemetry::Counter {
        self.world.borrow().telemetry().counter(name, &[])
    }

    /// Passive open on `port`.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if another listener holds the port.
    pub fn listen(&mut self, port: u16, backlog: usize) -> Result<SocketId, NetError> {
        self.world.borrow_mut().tcp_listen(self.host, port, backlog)
    }

    /// Accepts one pending connection on `listener`, if any.
    pub fn accept(&mut self, listener: SocketId) -> Option<SocketId> {
        self.world.borrow_mut().tcp_accept(listener)
    }

    /// Active open toward `remote`.
    pub fn connect(&mut self, remote: Endpoint) -> SocketId {
        self.world.borrow_mut().tcp_connect(self.host, remote)
    }

    /// Whether `id` has completed its handshake.
    pub fn established(&self, id: SocketId) -> bool {
        self.world.borrow().tcp_established(id)
    }

    /// Whether the peer has closed its direction of `id`.
    pub fn peer_closed(&self, id: SocketId) -> bool {
        self.world.borrow().tcp_peer_closed(id)
    }

    /// Bytes buffered for reading on `id`.
    pub fn available(&self, id: SocketId) -> usize {
        self.world.borrow().tcp_available(id)
    }

    /// Sends as much of `data` as the send buffer accepts; returns the
    /// number of bytes taken (0 on any socket error).
    pub fn send(&mut self, id: SocketId, data: &[u8]) -> usize {
        self.world.borrow_mut().tcp_send(id, data).unwrap_or(0)
    }

    /// Receives into `buf`.
    pub fn recv(&mut self, id: SocketId, buf: &mut [u8]) -> Recv {
        self.world.borrow_mut().tcp_recv(id, buf)
    }

    /// Appends the bytes a `recv` on `id` would deliver to `out`,
    /// without consuming them ([`World::tcp_peek`]).
    pub fn peek(&self, id: SocketId, out: &mut impl Extend<u8>) {
        out.extend(self.world.borrow().tcp_peek(id));
    }

    /// Replaces `out` with `listener`'s backlog, oldest first
    /// ([`World::tcp_backlog`]).
    pub fn backlog(&self, listener: SocketId, out: &mut Vec<SocketId>) {
        out.clear();
        out.extend(self.world.borrow().tcp_backlog(listener));
    }

    /// Room left in `id`'s send buffer, in bytes.
    pub fn send_room(&self, id: SocketId) -> usize {
        self.world.borrow().tcp_send_room(id)
    }

    /// Orderly close of `id` (errors ignored — the handle may already be
    /// closed).
    pub fn close(&mut self, id: SocketId) {
        let _ = self.world.borrow_mut().tcp_close(id);
    }

    /// Abortive close of `id` (RST; nothing further is delivered).
    pub fn abort(&mut self, id: SocketId) {
        self.world.borrow_mut().tcp_abort(id);
    }
}

impl std::fmt::Debug for SimHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHost")
            .field("host", &self.host)
            .field("now_us", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::LinkParams;

    #[test]
    fn two_handles_share_one_world() {
        let world = Rc::new(RefCell::new(World::new(7)));
        let mut a = SimHost::attach(&world, "a", Ipv4::new(10, 0, 0, 1));
        let mut b = SimHost::attach(&world, "b", Ipv4::new(10, 0, 0, 2));
        world
            .borrow_mut()
            .link(a.id(), b.id(), LinkParams::lan_100m());

        let l = a.listen(7, 4).expect("listen");
        let c = b.connect(Endpoint::new(a.ip(), 7));
        let mut server = None;
        for _ in 0..100 {
            world.borrow_mut().run_for(1_000);
            if server.is_none() {
                server = a.accept(l);
            }
            if server.is_some() && b.established(c) {
                break;
            }
        }
        let server = server.expect("accepted");
        assert!(b.established(c));

        assert_eq!(b.send(c, b"ping"), 4);
        for _ in 0..100 {
            world.borrow_mut().run_for(1_000);
            if a.available(server) >= 4 {
                break;
            }
        }
        let mut buf = [0u8; 8];
        assert_eq!(a.recv(server, &mut buf), Recv::Data(4));
        assert_eq!(&buf[..4], b"ping");
    }

    /// A server host listening on port 7 with `clients` connections
    /// waiting in its backlog, each of which has sent `hello <i>`.
    fn backlogged(clients: usize) -> (Rc<RefCell<World>>, SimHost, SocketId) {
        let world = Rc::new(RefCell::new(World::new(7)));
        let mut a = SimHost::attach(&world, "a", Ipv4::new(10, 0, 0, 1));
        let l = a.listen(7, 8).expect("listen");
        for i in 0..clients {
            let mut c = SimHost::attach(&world, "c", Ipv4::new(10, 0, 1, i as u8 + 1));
            world
                .borrow_mut()
                .link(a.id(), c.id(), LinkParams::lan_100m());
            let s = c.connect(Endpoint::new(a.ip(), 7));
            world.borrow_mut().run_for(2_000);
            assert_eq!(c.send(s, format!("hello {i}").as_bytes()), 7);
        }
        world.borrow_mut().run_for(2_000);
        world.borrow_mut().enable_trace();
        (world, a, l)
    }

    /// Everything a mutating call would move: the wire trace, the event
    /// queue and the telemetry snapshot (the `net.*` counters).
    fn observables(world: &Rc<RefCell<World>>) -> (usize, Option<u64>, String) {
        let w = world.borrow();
        (
            w.trace().len(),
            w.next_event_time(),
            w.telemetry().snapshot().to_text(),
        )
    }

    #[test]
    fn peek_is_a_pure_read_and_recv_returns_the_same_bytes() {
        let (world, mut a, l) = backlogged(1);
        let s = a.accept(l).expect("one pending");
        let before = observables(&world);
        let mut peeked = Vec::new();
        a.peek(s, &mut peeked);
        a.peek(s, &mut peeked);
        assert_eq!(peeked, b"hello 0hello 0");
        assert_eq!(observables(&world), before, "peek moves nothing");
        assert_eq!(a.available(s), 7);
        let mut buf = [0u8; 16];
        assert_eq!(a.recv(s, &mut buf), Recv::Data(7));
        assert_eq!(&buf[..7], &peeked[..7]);
        // The window update is recv's alone.
        assert_eq!(observables(&world).0, before.0 + 1, "recv sends one ACK");
    }

    #[test]
    fn backlog_lists_in_accept_order_without_moving_anything() {
        let (world, mut a, l) = backlogged(3);
        let before = observables(&world);
        let mut listed = vec![l];
        a.backlog(l, &mut listed);
        a.backlog(l, &mut listed);
        assert_eq!(listed.len(), 3);
        assert_eq!(world.borrow().tcp_pending(l), 3, "listing accepts nothing");
        assert_eq!(observables(&world), before, "listing moves nothing");
        for (i, &sock) in listed.iter().enumerate() {
            assert_eq!(a.accept(l), Some(sock));
            let mut hello = Vec::new();
            a.peek(sock, &mut hello);
            assert_eq!(hello, format!("hello {i}").into_bytes());
        }
        assert_eq!(a.accept(l), None);
        assert_eq!(observables(&world), before, "accept sends nothing");
    }
}
