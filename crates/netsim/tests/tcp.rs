//! End-to-end TCP behaviour over the simulated wire.

use netsim::{Endpoint, Ipv4, LinkParams, NetError, Recv, TcpState, World};

const SERVER_IP: Ipv4 = Ipv4(0x0A00_0001);
const CLIENT_IP: Ipv4 = Ipv4(0x0A00_0002);

fn world(params: LinkParams) -> (World, netsim::HostId, netsim::HostId) {
    let mut w = World::new(7);
    let server = w.add_host(SERVER_IP);
    let client = w.add_host(CLIENT_IP);
    w.link(server, client, params);
    (w, server, client)
}

fn connect(
    w: &mut World,
    server: netsim::HostId,
    client: netsim::HostId,
    port: u16,
) -> (netsim::SocketId, netsim::SocketId, netsim::SocketId) {
    let listener = w.tcp_listen(server, port, 8).expect("listen");
    let c = w.tcp_connect(client, Endpoint::new(SERVER_IP, port));
    assert!(w.run_until(|w| w.tcp_pending(listener) > 0, 100_000));
    let s = w.tcp_accept(listener).expect("backlog non-empty");
    assert!(w.tcp_established(c));
    assert!(w.tcp_established(s));
    (listener, c, s)
}

/// Pulls everything currently readable from `sock` into `out`.
fn drain(w: &mut World, sock: netsim::SocketId, out: &mut Vec<u8>) -> bool {
    let mut buf = [0u8; 4096];
    loop {
        match w.tcp_recv(sock, &mut buf) {
            Recv::Data(n) => out.extend_from_slice(&buf[..n]),
            Recv::WouldBlock => return false,
            Recv::Closed => return true,
            Recv::Reset => panic!("unexpected reset"),
        }
    }
}

#[test]
fn handshake_establishes_both_ends() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    let (_l, c, s) = connect(&mut w, server, client, 4433);
    assert_eq!(w.tcp_state(c), TcpState::Established);
    assert_eq!(w.tcp_state(s), TcpState::Established);
    assert_eq!(w.tcp_peer(s), Some(w.tcp_peer(s).unwrap()));
    assert_eq!(w.tcp_peer(c).unwrap().ip, SERVER_IP);
}

#[test]
fn small_transfer_round_trip() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    let (_l, c, s) = connect(&mut w, server, client, 80);
    assert_eq!(w.tcp_send(c, b"ping").unwrap(), 4);
    assert!(w.run_until(|w| w.tcp_available(s) >= 4, 100_000));
    let mut buf = [0u8; 8];
    assert_eq!(w.tcp_recv(s, &mut buf), Recv::Data(4));
    assert_eq!(&buf[..4], b"ping");
    // reply
    w.tcp_send(s, b"pong").unwrap();
    assert!(w.run_until(|w| w.tcp_available(c) >= 4, 100_000));
    assert_eq!(w.tcp_recv(c, &mut buf), Recv::Data(4));
    assert_eq!(&buf[..4], b"pong");
}

#[test]
fn bulk_transfer_crosses_mss_and_window() {
    let (mut w, server, client) = world(LinkParams::lan_100m());
    let (_l, c, s) = connect(&mut w, server, client, 9000);
    // 100 KiB: far beyond one MSS (1460) and beyond the 16 KiB window, so
    // flow control and segmentation both engage. Also beyond the 64 KiB
    // send buffer, so the sender must dribble it in.
    let data: Vec<u8> = (0..100 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let mut offset = 0;
    let mut received = Vec::new();
    let mut guard = 0;
    while received.len() < data.len() {
        if offset < data.len() {
            offset += w.tcp_send(c, &data[offset..]).unwrap();
        }
        w.run_for(10_000);
        drain(&mut w, s, &mut received);
        guard += 1;
        assert!(guard < 10_000, "transfer stalled at {}", received.len());
    }
    assert_eq!(received, data, "byte-exact in-order delivery");
}

#[test]
fn orderly_close_reaches_closed_on_both_sides() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    let (_l, c, s) = connect(&mut w, server, client, 23);
    w.tcp_send(c, b"bye").unwrap();
    w.tcp_close(c).unwrap();
    assert!(w.run_until(|w| w.tcp_available(s) >= 3, 100_000));
    let mut out = Vec::new();
    let eof = drain(&mut w, s, &mut out);
    assert_eq!(out, b"bye");
    assert!(
        eof || {
            w.run_for(100_000);
            drain(&mut w, s, &mut out)
        }
    );
    // Server closes its side; client should drain to Closed/TimeWait.
    w.tcp_close(s).unwrap();
    assert!(w.run_until(
        |w| matches!(w.tcp_state(s), TcpState::Closed)
            && matches!(w.tcp_state(c), TcpState::TimeWait | TcpState::Closed),
        100_000
    ));
}

#[test]
fn recv_reports_closed_after_fin_and_drain() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    let (_l, c, s) = connect(&mut w, server, client, 1234);
    w.tcp_send(c, b"last words").unwrap();
    w.tcp_close(c).unwrap();
    w.run_for(2_000_000);
    let mut out = Vec::new();
    let eof = drain(&mut w, s, &mut out);
    assert!(eof, "FIN after data must surface as Closed");
    assert_eq!(out, b"last words");
    let mut buf = [0u8; 4];
    assert_eq!(w.tcp_recv(s, &mut buf), Recv::Closed);
}

#[test]
fn lossy_link_still_delivers_everything() {
    let (mut w, server, client) = world(LinkParams::lan_100m().with_drop_rate(0.15));
    let (_l, c, s) = connect(&mut w, server, client, 5000);
    let data: Vec<u8> = (0..20_000).map(|i| (i % 256) as u8).collect();
    let mut offset = 0;
    let mut received = Vec::new();
    let mut guard = 0;
    while received.len() < data.len() {
        if offset < data.len() {
            offset += w.tcp_send(c, &data[offset..]).unwrap();
        }
        w.run_for(50_000);
        drain(&mut w, s, &mut received);
        guard += 1;
        assert!(
            guard < 20_000,
            "lossy transfer stalled at {}",
            received.len()
        );
    }
    assert_eq!(received, data);
    assert!(w.stats.dropped > 0, "the link actually dropped packets");
    assert!(w.stats.retransmits > 0, "TCP actually retransmitted");
}

#[test]
fn connect_to_closed_port_is_reset() {
    let (mut w, _server, client) = world(LinkParams::ethernet_10base_t());
    let c = w.tcp_connect(client, Endpoint::new(SERVER_IP, 81));
    assert!(w.run_until(|w| w.tcp_state(c) == TcpState::Closed, 100_000));
    let mut buf = [0u8; 1];
    assert_eq!(w.tcp_recv(c, &mut buf), Recv::Reset);
    assert!(matches!(
        w.tcp_send(c, b"x"),
        Err(NetError::ConnectionReset)
    ));
}

#[test]
fn abort_resets_the_peer() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    let (_l, c, s) = connect(&mut w, server, client, 6000);
    w.tcp_abort(c);
    assert!(w.run_until(|w| w.tcp_state(s) == TcpState::Closed, 100_000));
    let mut buf = [0u8; 1];
    assert_eq!(w.tcp_recv(s, &mut buf), Recv::Reset);
}

#[test]
fn multiple_simultaneous_connections_are_isolated() {
    let (mut w, server, client) = world(LinkParams::lan_100m());
    let listener = w.tcp_listen(server, 7777, 8).unwrap();
    let clients: Vec<_> = (0..3)
        .map(|_| w.tcp_connect(client, Endpoint::new(SERVER_IP, 7777)))
        .collect();
    assert!(w.run_until(|w| w.tcp_pending(listener) == 3, 100_000));
    let servers: Vec<_> = (0..3).map(|_| w.tcp_accept(listener).unwrap()).collect();

    for (i, &c) in clients.iter().enumerate() {
        let msg = format!("client-{i}");
        w.tcp_send(c, msg.as_bytes()).unwrap();
    }
    w.run_for(1_000_000);
    for (i, &s) in servers.iter().enumerate() {
        let mut out = Vec::new();
        drain(&mut w, s, &mut out);
        assert_eq!(out, format!("client-{i}").as_bytes(), "stream {i} isolated");
    }
}

#[test]
fn backlog_limit_defers_excess_connections() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    let listener = w.tcp_listen(server, 9999, 2).unwrap();
    let c: Vec<_> = (0..4)
        .map(|_| w.tcp_connect(client, Endpoint::new(SERVER_IP, 9999)))
        .collect();
    w.run_for(300_000);
    assert_eq!(w.tcp_pending(listener), 2, "only backlog-many complete");
    // Accepting drains the backlog; the remaining SYNs retransmit and
    // eventually get in.
    let _s1 = w.tcp_accept(listener).unwrap();
    let _s2 = w.tcp_accept(listener).unwrap();
    assert!(w.run_until(|w| w.tcp_pending(listener) == 2, 1_000_000));
    let _ = c;
}

#[test]
fn listen_twice_on_same_port_fails() {
    let (mut w, server, _client) = world(LinkParams::ethernet_10base_t());
    w.tcp_listen(server, 443, 4).unwrap();
    assert_eq!(w.tcp_listen(server, 443, 4), Err(NetError::AddrInUse(443)));
}

#[test]
fn loopback_connections_work() {
    let mut w = World::new(1);
    let host = w.add_host(Ipv4::new(127, 0, 0, 1));
    let listener = w.tcp_listen(host, 80, 4).unwrap();
    let c = w.tcp_connect(host, Endpoint::new(Ipv4::new(127, 0, 0, 1), 80));
    assert!(w.run_until(|w| w.tcp_pending(listener) > 0, 100_000));
    let s = w.tcp_accept(listener).unwrap();
    w.tcp_send(c, b"self").unwrap();
    assert!(w.run_until(|w| w.tcp_available(s) == 4, 100_000));
}

#[test]
fn udp_datagrams_and_icmp_echo() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    let us = w.udp_bind(server, 53).unwrap();
    let uc = w.udp_bind(client, 5353).unwrap();
    w.udp_send_to(uc, Endpoint::new(SERVER_IP, 53), b"query");
    w.run_for(100_000);
    let (from, payload) = w.udp_recv_from(us).expect("datagram arrived");
    assert_eq!(from.ip, CLIENT_IP);
    assert_eq!(payload, b"query");

    w.ping(client, SERVER_IP, 99, 1);
    w.run_for(100_000);
    let (from, echo) = w.ping_reply(client).expect("echo reply");
    assert_eq!(from, SERVER_IP);
    assert_eq!(echo.ident, 99);
    assert!(!echo.request);
}

#[test]
fn virtual_time_advances_with_wire_delays() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    assert_eq!(w.now(), 0);
    let (_l, c, s) = connect(&mut w, server, client, 80);
    let t_handshake = w.now();
    assert!(t_handshake >= 200, "handshake costs at least two latencies");
    w.tcp_send(c, &[0u8; 10_000]).unwrap();
    assert!(w.run_until(|w| w.tcp_available(s) == 10_000, 100_000));
    // 10 KB at 10 Mbit/s is at least 8 ms of serialization.
    assert!(w.now() - t_handshake >= 8_000, "bandwidth delay modelled");
}

#[test]
fn stats_count_delivered_bytes() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    let (_l, c, s) = connect(&mut w, server, client, 80);
    w.tcp_send(c, &[7u8; 5000]).unwrap();
    assert!(w.run_until(|w| w.tcp_available(s) == 5000, 100_000));
    assert_eq!(w.stats.tcp_bytes_delivered, 5000);
    assert!(w.stats.delivered > 3, "handshake + data + acks");

    // The same numbers surface through the world's telemetry registry.
    let snap = w.telemetry().snapshot();
    assert_eq!(snap.counter("net.tcp.bytes_delivered", &[]), 5000);
    assert_eq!(
        snap.counter("net.packets.delivered", &[]),
        w.stats.delivered.get()
    );
    assert!(snap.to_text().contains("net.tcp.bytes_delivered 5000\n"));
}

#[test]
fn trace_records_the_three_way_handshake() {
    let (mut w, server, client) = world(LinkParams::ethernet_10base_t());
    w.enable_trace();
    let (_l, c, _s) = connect(&mut w, server, client, 80);
    let summaries: Vec<String> = w.trace().iter().map(|t| t.summary.clone()).collect();
    assert!(summaries[0].starts_with("SYN "), "first: {}", summaries[0]);
    assert!(
        summaries[1].starts_with("SYN|ACK"),
        "second: {}",
        summaries[1]
    );
    assert!(summaries[2].starts_with("ACK"), "third: {}", summaries[2]);
    // the display form is tcpdump-ish
    let line = w.trace()[0].to_string();
    assert!(line.contains("10.0.0.2") && line.contains("µs"), "{line}");
    // data packets get len annotations
    w.clear_trace();
    w.tcp_send(c, b"hello").unwrap();
    w.run_for(100_000);
    assert!(
        w.trace().iter().any(|t| t.summary.contains("len=5")),
        "{:?}",
        w.trace()
    );
}

#[test]
fn trace_marks_dropped_packets() {
    let (mut w, server, client) = world(LinkParams::lan_100m().with_drop_rate(0.4));
    w.enable_trace();
    let listener = w.tcp_listen(server, 80, 4).unwrap();
    let _c = w.tcp_connect(client, Endpoint::new(SERVER_IP, 80));
    assert!(w.run_until(|w| w.tcp_pending(listener) > 0, 1_000_000));
    assert!(
        w.trace().iter().any(|t| t.dropped) || w.stats.dropped == 0,
        "drops show up in the trace"
    );
}
