//! Property tests: under any seed, loss rate and chunking pattern, TCP
//! delivers the byte stream exactly, in order.

use netsim::{Endpoint, Ipv4, LinkParams, Recv, World};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tcp_delivers_exactly_under_loss(
        seed in 0u64..1_000,
        drop_permille in 0u32..200,
        len in 1usize..30_000,
        chunk in 1usize..5_000,
    ) {
        let mut w = World::new(seed);
        let a = w.add_host(Ipv4::new(10, 0, 0, 1));
        let b = w.add_host(Ipv4::new(10, 0, 0, 2));
        w.link(
            a,
            b,
            LinkParams::lan_100m().with_drop_rate(f64::from(drop_permille) / 1000.0),
        );

        let listener = w.tcp_listen(a, 1000, 4).unwrap();
        let c = w.tcp_connect(b, Endpoint::new(Ipv4::new(10, 0, 0, 1), 1000));
        prop_assert!(w.run_until(|w| w.tcp_pending(listener) > 0, 1_000_000));
        let s = w.tcp_accept(listener).unwrap();

        let data: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(131) % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        let mut buf = vec![0u8; 8192];
        let mut stall = 0;
        while received.len() < data.len() {
            if sent < data.len() {
                let end = (sent + chunk).min(data.len());
                sent += w.tcp_send(c, &data[sent..end]).unwrap();
            }
            w.run_for(100_000);
            loop {
                match w.tcp_recv(s, &mut buf) {
                    Recv::Data(n) => {
                        received.extend_from_slice(&buf[..n]);
                        stall = 0;
                    }
                    Recv::WouldBlock => break,
                    Recv::Closed => break,
                    Recv::Reset => prop_assert!(false, "unexpected reset"),
                }
            }
            stall += 1;
            prop_assert!(stall < 2_000, "stalled at {}/{}", received.len(), data.len());
        }
        prop_assert_eq!(received, data);
    }
}
