//! Reproduction of the paper's Figure 2: the same echo service written
//! against (a) BSD sockets and (b) the Dynamic C API, with identical
//! observable behaviour.

use netsim::{Ipv4, LinkParams};
use sockets::bsd::{SockAddrIn, UnixProcess, AF_INET, SOCK_STREAM};
use sockets::dynic::{SockMode, Stack};
use sockets::Net;

const SERVER_IP: Ipv4 = Ipv4(0x0A00_0001);
const CLIENT_IP: Ipv4 = Ipv4(0x0A00_0002);
const PORT: u16 = 7;

fn rig() -> (Net, netsim::HostId, netsim::HostId) {
    let net = Net::new(11);
    let s = net.add_host(SERVER_IP);
    let c = net.add_host(CLIENT_IP);
    net.link(s, c, LinkParams::ethernet_10base_t());
    (net, s, c)
}

/// Figure 2(a): the BSD shape — socket, bind, listen, accept, recv, send.
#[test]
#[allow(clippy::field_reassign_with_default)] // mirrors the C idiom on purpose
fn echo_server_bsd_shape() {
    let (net, sh, ch) = rig();

    // Client connects first (connect pumps the world), then the server
    // accepts the queued connection.
    let mut client = UnixProcess::new(&net, ch);
    let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();

    let mut server = UnixProcess::new(&net, sh);
    let sock = server.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    let mut addr = SockAddrIn::default();
    addr.sin_family = AF_INET as u16;
    addr.sin_addr = netsim::htonl(sockets::bsd::INADDR_ANY);
    addr.sin_port = netsim::htons(PORT);
    server.bind(sock, &addr).unwrap();
    server.listen(sock, 4).unwrap();

    client
        .connect(cfd, &SockAddrIn::new(SERVER_IP, PORT))
        .unwrap();
    client.send_all(cfd, b"figure two\n").unwrap();

    let newsock = server.accept(sock).unwrap();
    let mut buf = [0u8; 64];
    let len = server.recv(newsock, &mut buf).unwrap();
    server.send_all(newsock, &buf[..len]).unwrap();

    let n = client.recv(cfd, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"figure two\n");
}

/// Figure 2(b): the Dynamic C shape — sock_init, tcp_listen,
/// sock_wait_established, sock_mode ASCII, tcp_tick/gets/puts loop.
#[test]
fn echo_server_dynic_shape() {
    let (net, sh, ch) = rig();

    let stack = Stack::sock_init(&net, sh);
    let sock = stack.tcp_socket();
    stack.tcp_listen(sock, PORT).unwrap();

    // Client side uses the BSD flavour, as a Unix peer would.
    let mut client = UnixProcess::new(&net, ch);
    let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();
    client
        .connect(cfd, &SockAddrIn::new(SERVER_IP, PORT))
        .unwrap();

    stack.sock_wait_established(sock, 10_000).unwrap();
    stack.sock_mode(sock, SockMode::Ascii);

    client.send_all(cfd, b"figure two\r\n").unwrap();

    // while (tcp_tick(&sock)) { sock_wait_input; if (sock_gets) sock_puts }
    let mut echoed = false;
    let mut rounds = 0;
    while stack.tcp_tick(Some(sock)) && !echoed {
        stack.sock_wait_input(sock, 10_000).unwrap();
        if let Some(line) = stack.sock_gets(sock).unwrap() {
            stack.sock_puts(sock, &line).unwrap();
            echoed = true;
        }
        rounds += 1;
        assert!(rounds < 10_000, "echo loop stalled");
    }
    assert!(echoed);

    let mut buf = [0u8; 64];
    let n = client.recv(cfd, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"figure two\r\n", "ASCII mode re-appends CRLF");
}

/// Both servers observable-equivalent: one byte stream in, same bytes out.
#[test]
fn both_apis_echo_identically() {
    for api in ["bsd", "dynic"] {
        let (net, sh, ch) = rig();
        let mut client = UnixProcess::new(&net, ch);
        let cfd = client.socket(AF_INET, SOCK_STREAM, 0).unwrap();

        let payload = b"same bytes through either API\r\n".to_vec();
        let mut got = Vec::new();

        match api {
            "bsd" => {
                let mut server = UnixProcess::new(&net, sh);
                let l = server.socket(AF_INET, SOCK_STREAM, 0).unwrap();
                server.bind(l, &SockAddrIn::new(Ipv4::ANY, PORT)).unwrap();
                server.listen(l, 4).unwrap();
                client
                    .connect(cfd, &SockAddrIn::new(SERVER_IP, PORT))
                    .unwrap();
                client.send_all(cfd, &payload).unwrap();
                let a = server.accept(l).unwrap();
                let mut buf = [0u8; 128];
                let n = server.recv(a, &mut buf).unwrap();
                server.send_all(a, &buf[..n]).unwrap();
                let n = client.recv(cfd, &mut buf).unwrap();
                got.extend_from_slice(&buf[..n]);
            }
            _ => {
                let stack = Stack::sock_init(&net, sh);
                let sock = stack.tcp_socket();
                stack.tcp_listen(sock, PORT).unwrap();
                client
                    .connect(cfd, &SockAddrIn::new(SERVER_IP, PORT))
                    .unwrap();
                client.send_all(cfd, &payload).unwrap();
                stack.sock_wait_established(sock, 10_000).unwrap();
                // binary mode: raw read/write echo
                let mut buf = [0u8; 128];
                let mut n = 0;
                let mut rounds = 0;
                while n == 0 {
                    stack.tcp_tick(None);
                    n = stack.sock_read(sock, &mut buf).unwrap();
                    rounds += 1;
                    assert!(rounds < 10_000);
                }
                stack.sock_write(sock, &buf[..n]).unwrap();
                let n = client.recv(cfd, &mut buf).unwrap();
                got.extend_from_slice(&buf[..n]);
            }
        }
        assert_eq!(got, payload, "api {api} echoes byte-exactly");
    }
}

/// The Dynamic C stack hands connections on one port to multiple waiting
/// sockets — the mechanism behind the Figure 3 server structure.
#[test]
fn multiple_listeners_share_one_port() {
    let (net, sh, ch) = rig();
    let stack = Stack::sock_init(&net, sh);
    let socks: Vec<_> = (0..3)
        .map(|_| {
            let s = stack.tcp_socket();
            stack.tcp_listen(s, PORT).unwrap();
            s
        })
        .collect();

    let mut clients = Vec::new();
    for _ in 0..3 {
        let mut c = UnixProcess::new(&net, ch);
        let fd = c.socket(AF_INET, SOCK_STREAM, 0).unwrap();
        c.connect(fd, &SockAddrIn::new(SERVER_IP, PORT)).unwrap();
        clients.push((c, fd));
    }
    for _ in 0..1000 {
        stack.tcp_tick(None);
        if socks.iter().all(|&s| stack.sock_established(s)) {
            break;
        }
    }
    assert!(
        socks.iter().all(|&s| stack.sock_established(s)),
        "all three listeners picked up a connection"
    );

    // Each client writes a distinct message; each slot sees exactly one.
    for (i, (c, fd)) in clients.iter_mut().enumerate() {
        c.send_all(*fd, format!("msg{i}").as_bytes()).unwrap();
    }
    net.pump(1_000_000);
    let mut seen = Vec::new();
    for &s in &socks {
        let mut buf = [0u8; 16];
        let n = stack.sock_read(s, &mut buf).unwrap();
        assert_eq!(n, 4);
        seen.push(String::from_utf8_lossy(&buf[..n]).into_owned());
    }
    seen.sort();
    assert_eq!(seen, vec!["msg0", "msg1", "msg2"]);
}

/// After sock_close the slot is reusable with another tcp_listen — the
/// recompile-free path the paper notes is *not* available for adding
/// more concurrency, but is how one slot serves sequential requests.
#[test]
fn slot_reuse_after_close() {
    let (net, sh, ch) = rig();
    let stack = Stack::sock_init(&net, sh);
    let sock = stack.tcp_socket();

    for round in 0..2 {
        stack.tcp_listen(sock, PORT).unwrap();
        let mut c = UnixProcess::new(&net, ch);
        let fd = c.socket(AF_INET, SOCK_STREAM, 0).unwrap();
        c.connect(fd, &SockAddrIn::new(SERVER_IP, PORT)).unwrap();
        stack.sock_wait_established(sock, 10_000).unwrap();
        c.send_all(fd, format!("round{round}").as_bytes()).unwrap();
        net.pump(500_000);
        let mut buf = [0u8; 16];
        let n = stack.sock_read(sock, &mut buf).unwrap();
        assert_eq!(&buf[..n], format!("round{round}").as_bytes());
        stack.sock_close(sock);
        c.close(fd).unwrap();
        net.pump(2_000_000);
    }
}
