//! A deterministic discrete-event network simulator: hosts joined by
//! links with latency, bandwidth and loss, carrying IP packets with full
//! TCP (three-way handshake, segmentation, cumulative acknowledgement,
//! retransmission with exponential backoff, flow control, orderly FIN
//! teardown and RST), UDP and ICMP echo.
//!
//! This is the substitute for the physical LAN of *Porting a Network
//! Cryptographic Service to the RMC2000* (DATE 2003): the paper's service
//! ran on a 10Base-T development kit talking to Unix peers, and the
//! throughput-shaped experiments (plaintext vs SSL redirection) need a
//! reproducible wire. Time is virtual — microseconds advance only when
//! events are processed — so every run is exactly repeatable for a given
//! seed.
//!
//! # Example
//!
//! ```
//! use netsim::{Endpoint, Ipv4, LinkParams, Recv, World};
//!
//! let mut w = World::new(42);
//! let server = w.add_host(Ipv4::new(10, 0, 0, 1));
//! let client = w.add_host(Ipv4::new(10, 0, 0, 2));
//! w.link(server, client, LinkParams::ethernet_10base_t());
//!
//! let listener = w.tcp_listen(server, 7, 4).unwrap();
//! let c = w.tcp_connect(client, Endpoint::new(Ipv4::new(10, 0, 0, 1), 7));
//! assert!(w.run_until(|w| w.tcp_pending(listener) > 0, 1_000));
//!
//! let s = w.tcp_accept(listener).unwrap();
//! assert!(w.tcp_established(c));
//! w.tcp_send(c, b"hello").unwrap();
//! assert!(w.run_until(|w| w.tcp_available(s) >= 5, 1_000));
//! let mut buf = [0u8; 16];
//! assert_eq!(w.tcp_recv(s, &mut buf), Recv::Data(5));
//! assert_eq!(&buf[..5], b"hello");
//! ```

pub mod addr;
pub mod attach;
pub mod fault;
pub mod lb;
pub mod packet;
pub mod tcp;
pub mod world;

pub use addr::{htonl, htons, ntohl, ntohs, Endpoint, Ipv4};
pub use attach::SimHost;
pub use fault::{Corruption, LinkId};
pub use lb::{BackendStats, LbCounters, LbPolicy, LoadBalancer, CONNECT_TIMEOUT_US};
pub use packet::{IcmpEcho, Packet, TcpFlags, TcpSegment, Transport, UdpDatagram};
pub use tcp::{HostId, SocketId, TcpState, MSS, RECV_WINDOW, SEND_BUFFER};
pub use world::{LinkParams, NetError, Recv, SocketEvent, Stats, TraceEntry, UdpId, World};
