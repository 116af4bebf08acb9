//! UDP and ICMP edge cases.

use netsim::{Endpoint, Ipv4, LinkParams, NetError, World};

fn rig() -> (World, netsim::HostId, netsim::HostId) {
    let mut w = World::new(3);
    let a = w.add_host(Ipv4::new(10, 0, 0, 1));
    let b = w.add_host(Ipv4::new(10, 0, 0, 2));
    w.link(a, b, LinkParams::ethernet_10base_t());
    (w, a, b)
}

#[test]
fn udp_bind_conflicts_are_rejected() {
    let (mut w, a, b) = rig();
    w.udp_bind(a, 53).unwrap();
    assert_eq!(w.udp_bind(a, 53), Err(NetError::AddrInUse(53)));
    // same port on a different host is fine
    w.udp_bind(b, 53).unwrap();
}

#[test]
fn udp_to_unbound_port_is_dropped_silently() {
    let (mut w, a, b) = rig();
    let ua = w.udp_bind(a, 1000).unwrap();
    w.udp_send_to(ua, Endpoint::new(Ipv4::new(10, 0, 0, 2), 9), b"void");
    w.run_for(100_000);
    let ub = w.udp_bind(b, 9).unwrap();
    assert_eq!(
        w.udp_recv_from(ub),
        None,
        "nothing queued for a late binder"
    );
}

#[test]
fn udp_is_bidirectional_and_ordered_on_a_clean_link() {
    let (mut w, a, b) = rig();
    let ua = w.udp_bind(a, 100).unwrap();
    let ub = w.udp_bind(b, 200).unwrap();
    for i in 0..5u8 {
        w.udp_send_to(ua, Endpoint::new(Ipv4::new(10, 0, 0, 2), 200), &[i]);
    }
    w.run_for(200_000);
    for i in 0..5u8 {
        let (from, data) = w.udp_recv_from(ub).expect("datagram");
        assert_eq!(from.port, 100);
        assert_eq!(data, vec![i], "FIFO order on a lossless link");
    }
    w.udp_send_to(ub, Endpoint::new(Ipv4::new(10, 0, 0, 1), 100), b"back");
    w.run_for(100_000);
    assert_eq!(w.udp_recv_from(ua).expect("reply").1, b"back");
}

#[test]
fn ping_to_unroutable_address_is_counted() {
    let (mut w, a, _b) = rig();
    w.ping(a, Ipv4::new(192, 168, 99, 99), 1, 1);
    w.run_for(100_000);
    assert_eq!(w.ping_reply(a), None);
    assert_eq!(w.stats.unroutable, 1);
}

#[test]
fn ping_round_trip_time_reflects_the_link() {
    let (mut w, a, _b) = rig();
    let t0 = w.now();
    w.ping(a, Ipv4::new(10, 0, 0, 2), 7, 1);
    w.run_for(10_000);
    let (from, echo) = w.ping_reply(a).expect("reply");
    assert_eq!(from, Ipv4::new(10, 0, 0, 2));
    assert_eq!((echo.ident, echo.seq), (7, 1));
    assert!(w.now() - t0 >= 200, "two traversals of a 100 µs link");
}
