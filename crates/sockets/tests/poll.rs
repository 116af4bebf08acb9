//! Edge cases of the readiness layer: the BSD `poll` snapshot, the
//! Dynamic C `sock_readiness` mirror, and the netsim socket-event queue
//! that backs both.

use netsim::{Endpoint, Ipv4, LinkParams, SocketEvent};
use sockets::bsd::{SockAddrIn, UnixProcess, AF_INET, SOCK_STREAM};
use sockets::dynic::Stack;
use sockets::Net;

const SERVER_IP: Ipv4 = Ipv4(0x0A00_0001);
const CLIENT_IP: Ipv4 = Ipv4(0x0A00_0002);
const PORT: u16 = 4433;

fn rig() -> (Net, netsim::HostId, netsim::HostId) {
    let net = Net::new(23);
    let s = net.add_host(SERVER_IP);
    let c = net.add_host(CLIENT_IP);
    net.link(s, c, LinkParams::ethernet_10base_t());
    (net, s, c)
}

/// The Figure 3 shape under readiness: three listen slots on one port, a
/// full table of inbound connections — every slot turns accept-ready; a
/// fourth slot only becomes ready when a fourth client shows up, and an
/// active open is never accept-ready.
#[test]
fn accept_ready_on_full_dynic_table() {
    let (net, sh, ch) = rig();
    let stack = Stack::sock_init(&net, sh);
    let socks: Vec<_> = (0..3)
        .map(|_| {
            let s = stack.tcp_socket();
            stack.tcp_listen(s, PORT).unwrap();
            s
        })
        .collect();

    // Nothing inbound yet: no slot is ready in any way.
    for &s in &socks {
        assert!(!stack.sock_readiness(s).any(), "idle listen slot is quiet");
    }

    let mut clients = Vec::new();
    for _ in 0..3 {
        let mut c = UnixProcess::new(&net, ch);
        let fd = c.socket(AF_INET, SOCK_STREAM, 0).unwrap();
        c.connect(fd, &SockAddrIn::new(SERVER_IP, PORT)).unwrap();
        clients.push((c, fd));
    }
    for _ in 0..1000 {
        stack.tcp_tick(None);
        if socks.iter().all(|&s| stack.sock_readiness(s).accept_ready) {
            break;
        }
    }
    for &s in &socks {
        let r = stack.sock_readiness(s);
        assert!(r.accept_ready, "full table: every slot got a connection");
        assert!(r.writable, "fresh connection is writable");
        assert!(!r.readable, "no data sent yet");
    }

    // A fourth slot joins the (now fully consumed) port: not ready until
    // a fourth client actually connects.
    let extra = stack.tcp_socket();
    stack.tcp_listen(extra, PORT).unwrap();
    stack.tcp_tick(None);
    assert!(!stack.sock_readiness(extra).any(), "no fourth connection yet");

    let mut c4 = UnixProcess::new(&net, ch);
    let fd4 = c4.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    c4.connect(fd4, &SockAddrIn::new(SERVER_IP, PORT)).unwrap();
    for _ in 0..1000 {
        stack.tcp_tick(None);
        if stack.sock_readiness(extra).accept_ready {
            break;
        }
    }
    assert!(stack.sock_readiness(extra).accept_ready);

    // Active opens are connections the slot asked for, not dispatched
    // accepts: established and writable, but never accept-ready.
    let mut peer = UnixProcess::new(&net, ch);
    let pfd = peer.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    peer.bind(pfd, &SockAddrIn::new(Ipv4::ANY, 9000)).unwrap();
    peer.listen(pfd, 4).unwrap();
    let active = stack.tcp_socket();
    stack
        .tcp_open(active, Endpoint::new(CLIENT_IP, 9000))
        .unwrap();
    stack.sock_wait_established(active, 10_000).unwrap();
    let r = stack.sock_readiness(active);
    assert!(r.writable && !r.accept_ready, "tcp_open is not an accept");
}

/// POLLIN semantics at end of stream: after the peer sends data and
/// closes, the descriptor stays readable until both the buffered bytes
/// and the EOF itself have been consumed.
#[test]
fn readable_after_peer_close() {
    let (net, sh, ch) = rig();
    let mut server = UnixProcess::new(&net, sh);
    let lfd = server.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    server.bind(lfd, &SockAddrIn::new(Ipv4::ANY, PORT)).unwrap();
    server.listen(lfd, 4).unwrap();

    let mut client = UnixProcess::new(&net, ch);
    let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    client.connect(cfd, &SockAddrIn::new(SERVER_IP, PORT)).unwrap();
    let afd = server.accept(lfd).unwrap();

    client.send_all(cfd, b"last words").unwrap();
    client.close(cfd).unwrap();
    net.pump(2_000_000);

    let r = server.readiness(afd).unwrap();
    assert!(r.readable, "buffered data after FIN is readable");
    assert!(r.peer_closed, "FIN observed");

    let mut buf = [0u8; 64];
    let n = server.recv(afd, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"last words");

    // Data consumed, EOF still pending: POLLIN must keep firing so the
    // application comes back to read the 0.
    let r = server.readiness(afd).unwrap();
    assert!(r.readable, "EOF itself is a readable event");
    assert!(r.peer_closed);
    assert_eq!(server.recv(afd, &mut buf).unwrap(), 0, "orderly EOF");
}

/// Flow control reaches the poll layer: a receiver that never reads
/// zeroes its advertised window, the sender's buffer jams full, and
/// write-readiness goes (and stays) false until the receiver drains.
#[test]
fn write_readiness_under_zero_receive_window() {
    let (net, sh, ch) = rig();
    let mut server = UnixProcess::new(&net, sh);
    let lfd = server.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    server.bind(lfd, &SockAddrIn::new(Ipv4::ANY, PORT)).unwrap();
    server.listen(lfd, 4).unwrap();

    let mut client = UnixProcess::new(&net, ch);
    let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    client.connect(cfd, &SockAddrIn::new(SERVER_IP, PORT)).unwrap();
    let afd = server.accept(lfd).unwrap();
    assert!(client.readiness(cfd).unwrap().writable);

    // Push until the connection is wedged: send buffer full AND pumping
    // the world frees nothing, because the receiver's window is zero.
    let chunk = [0x5au8; 1024];
    let mut pushed = 0usize;
    loop {
        while client.readiness(cfd).unwrap().writable {
            pushed += client.send(cfd, &chunk).unwrap();
            assert!(pushed < 512 * 1024, "send buffer never filled");
        }
        net.pump(5_000_000);
        if !client.readiness(cfd).unwrap().writable {
            break;
        }
    }
    net.pump(5_000_000);
    assert!(
        !client.readiness(cfd).unwrap().writable,
        "zero receive window keeps the sender unwritable through pumps"
    );
    assert!(server.readiness(afd).unwrap().readable);

    // Drain the receiver; the window reopens and writability returns.
    let mut buf = [0u8; 4096];
    let mut drained = 0usize;
    while drained < pushed {
        let n = server.recv(afd, &mut buf).unwrap();
        assert!(n > 0, "stream ended early at {drained}/{pushed}");
        drained += n;
    }
    net.pump(5_000_000);
    assert!(
        client.readiness(cfd).unwrap().writable,
        "draining the receiver restores write readiness"
    );
}

/// `poll` returns only ready descriptors; `poll_wait` blocks (pumping)
/// until one becomes ready.
#[test]
fn poll_reports_only_ready_descriptors() {
    let (net, sh, ch) = rig();
    let mut server = UnixProcess::new(&net, sh);
    let lfd = server.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    server.bind(lfd, &SockAddrIn::new(Ipv4::ANY, PORT)).unwrap();
    server.listen(lfd, 4).unwrap();

    assert!(
        server.poll(&[lfd]).unwrap().is_empty(),
        "nothing pending, nothing ready"
    );

    let mut client = UnixProcess::new(&net, ch);
    let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    client.connect(cfd, &SockAddrIn::new(SERVER_IP, PORT)).unwrap();

    let ready = server.poll_wait(&[lfd]).unwrap();
    assert_eq!(ready.len(), 1);
    assert_eq!(ready[0].0, lfd);
    assert!(ready[0].1.accept_ready);

    let afd = server.accept(lfd).unwrap();
    // Accepted connection: writable immediately, readable only once the
    // client talks — and poll over both fds reports each correctly.
    let ready = server.poll(&[lfd, afd]).unwrap();
    assert_eq!(ready.len(), 1, "listener went quiet after accept");
    assert_eq!(ready[0].0, afd);
    assert!(ready[0].1.writable && !ready[0].1.readable);

    client.send_all(cfd, b"ping").unwrap();
    net.pump(2_000_000);
    let ready = server.poll(&[lfd, afd]).unwrap();
    assert_eq!(ready.len(), 1);
    assert!(ready[0].1.readable, "data arrived: {:?}", ready[0].1);
}

/// The netsim event queue the serving loop consumes: edges only (empty →
/// non-empty), drained by `take_socket_events`, and off unless enabled.
#[test]
fn socket_event_edges_and_drain() {
    let (net, sh, ch) = rig();

    // Events are opt-in: without enable_socket_events, nothing is queued.
    let mut client = UnixProcess::new(&net, ch);
    let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    let mut server = UnixProcess::new(&net, sh);
    let lfd = server.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    server.bind(lfd, &SockAddrIn::new(Ipv4::ANY, PORT)).unwrap();
    server.listen(lfd, 4).unwrap();
    client.connect(cfd, &SockAddrIn::new(SERVER_IP, PORT)).unwrap();
    assert!(
        net.with(|w| w.take_socket_events().is_empty()),
        "event queue stays empty until enabled"
    );

    net.with(|w| w.enable_socket_events());
    let afd = server.accept(lfd).unwrap();
    net.with(|w| w.take_socket_events()); // discard connection-setup noise

    client.send_all(cfd, b"first").unwrap();
    client.send_all(cfd, b" second").unwrap();
    net.pump(2_000_000);

    let events = net.with(|w| w.take_socket_events());
    let bytes_ready = events
        .iter()
        .filter(|e| matches!(e, SocketEvent::BytesReady(_)))
        .count();
    assert_eq!(
        bytes_ready, 1,
        "edge-triggered: one BytesReady per empty→non-empty transition, got {events:?}"
    );
    assert!(
        net.with(|w| w.take_socket_events().is_empty()),
        "take_socket_events drains the queue"
    );

    // Reading to empty re-arms the edge; the next payload fires again.
    let mut buf = [0u8; 64];
    let n = server.recv(afd, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"first second");
    client.send_all(cfd, b"third").unwrap();
    net.pump(2_000_000);
    let events = net.with(|w| w.take_socket_events());
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SocketEvent::BytesReady(_))),
        "edge re-arms after the buffer empties, got {events:?}"
    );

    // Peer close produces a PeerClosed edge for the serving loop.
    client.close(cfd).unwrap();
    net.pump(2_000_000);
    let events = net.with(|w| w.take_socket_events());
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SocketEvent::PeerClosed(_))),
        "FIN surfaces as PeerClosed, got {events:?}"
    );
}
