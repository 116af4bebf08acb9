//! The paper's Figure 2, runnable: the same echo service written against
//! (a) BSD sockets and (b) the Dynamic C TCP API, producing identical
//! observable behaviour over the same simulated wire — and illustrating
//! why the port was tedious.
//!
//! ```text
//! cargo run -p bench --example echo_bsd_vs_dync
//! ```

use netsim::{htonl, htons, Ipv4, LinkParams};
use sockets::bsd::{SockAddrIn, UnixProcess, AF_INET, INADDR_ANY, SOCK_STREAM};
use sockets::dynic::{SockMode, Stack};
use sockets::Net;

const PORT: u16 = 7;
const SERVER_IP: Ipv4 = Ipv4(0x0A00_0001);

fn rig() -> (Net, netsim::HostId, netsim::HostId) {
    let net = Net::new(77);
    let s = net.add_host(SERVER_IP);
    let c = net.add_host(Ipv4::new(10, 0, 0, 2));
    net.link(s, c, LinkParams::ethernet_10base_t());
    (net, s, c)
}

/// Figure 2(a): the BSD shape.
#[allow(clippy::field_reassign_with_default)] // mirrors the C idiom on purpose
fn echo_server_bsd() {
    println!("--- Figure 2(a): BSD sockets ---");
    let (net, sh, ch) = rig();

    let mut server = UnixProcess::new(&net, sh);
    let sock = server.socket(AF_INET, SOCK_STREAM, 0).expect("socket");
    // Field-by-field on purpose: this mirrors the C idiom of Figure 2(a).
    let mut addr = SockAddrIn::default();
    addr.sin_family = AF_INET as u16;
    addr.sin_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(PORT);
    server.bind(sock, &addr).expect("bind");
    server.listen(sock, 4).expect("listen");
    println!("server: socket/bind/listen done, accept() will block");

    let mut client = UnixProcess::new(&net, ch);
    let cfd = client.socket(AF_INET, SOCK_STREAM, 0).expect("socket");
    client
        .connect(cfd, &SockAddrIn::new(SERVER_IP, PORT))
        .expect("connect");
    client.send_all(cfd, b"hello, bsd world\n").expect("send");

    let newsock = server.accept(sock).expect("accept");
    let mut buf = [0u8; 64];
    let len = server.recv(newsock, &mut buf).expect("recv");
    server.send_all(newsock, &buf[..len]).expect("send");
    println!("server: accepted, echoed {len} bytes");

    let n = client.recv(cfd, &mut buf).expect("recv");
    println!(
        "client got back: {:?}",
        String::from_utf8_lossy(&buf[..n]).trim_end()
    );
}

/// Figure 2(b): the Dynamic C shape.
fn echo_server_dynic() {
    println!("--- Figure 2(b): Dynamic C API ---");
    let (net, sh, ch) = rig();

    // sock_init(); tcp_listen(&socket, PORT, ...);
    let stack = Stack::sock_init(&net, sh);
    let sock = stack.tcp_socket();
    stack.tcp_listen(sock, PORT).expect("tcp_listen");
    println!("server: sock_init + tcp_listen (no accept exists!)");

    let mut client = UnixProcess::new(&net, ch);
    let cfd = client.socket(AF_INET, SOCK_STREAM, 0).expect("socket");
    client
        .connect(cfd, &SockAddrIn::new(SERVER_IP, PORT))
        .expect("connect");

    stack
        .sock_wait_established(sock, 100_000)
        .expect("established");
    stack.sock_mode(sock, SockMode::Ascii);
    println!("server: sock_wait_established + sock_mode(ASCII)");

    client.send_all(cfd, b"hello, dynamic c\r\n").expect("send");

    // while (tcp_tick(&socket)) { if (sock_gets(...)) sock_puts(...); }
    let mut echoed = false;
    while stack.tcp_tick(Some(sock)) && !echoed {
        stack.sock_wait_input(sock, 100_000).expect("input");
        if let Some(line) = stack.sock_gets(sock).expect("gets") {
            println!("server: sock_gets -> {line:?}; sock_puts echoes it");
            stack.sock_puts(sock, &line).expect("puts");
            echoed = true;
        }
    }

    let mut buf = [0u8; 64];
    let n = client.recv(cfd, &mut buf).expect("recv");
    println!(
        "client got back: {:?}",
        String::from_utf8_lossy(&buf[..n]).trim_end()
    );
}

fn main() {
    echo_server_bsd();
    println!();
    echo_server_dynic();
    println!();
    println!("same service, same bytes — APIs \"substantially different\" (paper §5)");
}
