//! The discrete-event simulation world: hosts, links, the event queue and
//! the full TCP/UDP/ICMP machinery.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::{Endpoint, Ipv4};
use crate::fault::{Corruption, LinkId};
use crate::packet::{IcmpEcho, Packet, TcpFlags, TcpSegment, Transport, UdpDatagram};
use crate::tcp::{
    HostId, SocketId, TcpSocket, TcpState, INITIAL_RTO_US, MAX_RTO_US, MSS, RECV_WINDOW,
    SEND_BUFFER, TIME_WAIT_US,
};

/// Copies `len` bytes starting at `start` out of a byte deque without
/// walking it element-by-element (the send buffer is re-read from an
/// `in_flight` offset on every segment, so this is a hot path).
fn copy_range(dq: &VecDeque<u8>, start: usize, len: usize) -> Vec<u8> {
    let end = start + len;
    let (a, b) = dq.as_slices();
    let mut out = Vec::with_capacity(len);
    if start < a.len() {
        out.extend_from_slice(&a[start..end.min(a.len())]);
    }
    if end > a.len() {
        out.extend_from_slice(&b[start.saturating_sub(a.len())..end - a.len()]);
    }
    out
}

/// Parameters of a point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way propagation latency in microseconds.
    pub latency_us: u64,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Probability that a packet is lost in transit.
    pub drop_rate: f64,
}

impl LinkParams {
    /// A 10Base-T Ethernet segment, as on the RMC2000 development kit:
    /// 10 Mbit/s, 100 µs latency, lossless.
    pub fn ethernet_10base_t() -> LinkParams {
        LinkParams {
            latency_us: 100,
            bandwidth_bps: 10_000_000,
            drop_rate: 0.0,
        }
    }

    /// A fast LAN (100 Mbit/s, 50 µs), for host-side experiments.
    pub fn lan_100m() -> LinkParams {
        LinkParams {
            latency_us: 50,
            bandwidth_bps: 100_000_000,
            drop_rate: 0.0,
        }
    }

    /// Adds loss to a link, for retransmission tests.
    pub fn with_drop_rate(mut self, rate: f64) -> LinkParams {
        self.drop_rate = rate;
        self
    }
}

#[derive(Debug)]
struct Link {
    a: HostId,
    b: HostId,
    params: LinkParams,
    busy_until: u64,
    rng: StdRng,
    /// RNG for fault decisions (corruption draws) — a stream separate
    /// from the drop RNG, seeded from the world seed and the link id,
    /// so arming a fault never shifts the loss pattern.
    fault_rng: StdRng,
    /// Armed frame-corruption spec, if any (see [`crate::fault`]).
    corrupt: Option<Corruption>,
}

#[derive(Debug)]
struct Host {
    ip: Ipv4,
    icmp_inbox: VecDeque<(Ipv4, IcmpEcho)>,
    next_ephemeral: u16,
}

/// Handle to a UDP socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpId(usize);

#[derive(Debug)]
struct UdpSock {
    host: HostId,
    port: u16,
    inbox: VecDeque<(Endpoint, Vec<u8>)>,
}

#[derive(Debug)]
enum Event {
    Deliver { host: HostId, packet: Packet },
    Retransmit { sock: SocketId, snapshot: u32 },
    TimeWaitExpire { sock: SocketId },
}

#[derive(Debug)]
struct Scheduled {
    time: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Scheduled) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Scheduled) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One line of the wire trace (tcpdump style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time the packet hit the wire, in microseconds.
    pub time_us: u64,
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Human-readable summary (`SYN seq=1`, `ACK ack=42 len=100`, …).
    pub summary: String,
    /// Whether the link dropped this packet.
    pub dropped: bool,
}

impl std::fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>10} µs  {} > {}  {}{}",
            self.time_us,
            self.src,
            self.dst,
            self.summary,
            if self.dropped { "  [DROPPED]" } else { "" }
        )
    }
}

fn summarize(body: &Transport) -> String {
    match body {
        Transport::Tcp(t) => {
            let mut s = t.flags.to_string();
            s.push_str(&format!(" seq={}", t.seq));
            if t.flags.ack {
                s.push_str(&format!(" ack={}", t.ack));
            }
            if !t.payload.is_empty() {
                s.push_str(&format!(" len={}", t.payload.len()));
            }
            s.push_str(&format!(" win={}", t.window));
            s
        }
        Transport::Udp(u) => format!("UDP len={}", u.payload.len()),
        Transport::Icmp(e) => format!(
            "ICMP echo {} id={} seq={}",
            if e.request { "request" } else { "reply" },
            e.ident,
            e.seq
        ),
    }
}

/// Counters accumulated while the simulation runs.
///
/// Each field is a [`telemetry::Counter`] registered in the world's
/// [`telemetry::Registry`] under a `net.*` name, so a registry snapshot
/// carries the same numbers. Counters compare against plain integers
/// (`w.stats.dropped > 0` still reads as before); cloning a `Stats`
/// shares the underlying cells rather than copying values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Packets handed to a host's stack (`net.packets.delivered`).
    pub delivered: telemetry::Counter,
    /// Packets lost on a link (`net.packets.dropped`).
    pub dropped: telemetry::Counter,
    /// TCP payloads damaged by scripted link corruption
    /// (`net.packets.corrupted`).
    pub corrupted: telemetry::Counter,
    /// TCP retransmissions sent (`net.tcp.retransmits`).
    pub retransmits: telemetry::Counter,
    /// Packets with no route to their destination
    /// (`net.packets.unroutable`).
    pub unroutable: telemetry::Counter,
    /// Application payload bytes delivered in order by TCP
    /// (`net.tcp.bytes_delivered`).
    pub tcp_bytes_delivered: telemetry::Counter,
}

impl Stats {
    /// Creates the stats block with every counter registered in
    /// `registry` under its `net.*` name.
    fn register(registry: &telemetry::Registry) -> Stats {
        Stats {
            delivered: registry.counter("net.packets.delivered", &[]),
            dropped: registry.counter("net.packets.dropped", &[]),
            corrupted: registry.counter("net.packets.corrupted", &[]),
            retransmits: registry.counter("net.tcp.retransmits", &[]),
            unroutable: registry.counter("net.packets.unroutable", &[]),
            tcp_bytes_delivered: registry.counter("net.tcp.bytes_delivered", &[]),
        }
    }
}

/// A per-socket readiness transition, recorded as the TCP machinery
/// processes segments. Consumers that register interest (via
/// [`World::enable_socket_events`]) drain these with
/// [`World::take_socket_events`] and wake exactly the sockets that
/// changed — O(ready), not O(sockets). Each event marks an edge
/// (empty→non-empty buffer, new backlog entry, first FIN), so an idle
/// world generates no events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketEvent {
    /// An active open completed its three-way handshake (SYN-SENT →
    /// ESTABLISHED), or a passive child became synchronised.
    Established(SocketId),
    /// A listener gained a fully established connection in its backlog;
    /// `tcp_accept` will now succeed.
    AcceptReady(SocketId),
    /// The receive buffer went from empty to non-empty; `tcp_recv` will
    /// now return data.
    BytesReady(SocketId),
    /// The peer's FIN was sequenced (or the connection was reset); after
    /// the buffered bytes, `tcp_recv` reports end of stream.
    PeerClosed(SocketId),
    /// Acknowledged data freed send-buffer space, or a zero receive
    /// window reopened; a previously blocked `tcp_send` may make
    /// progress again.
    WindowOpen(SocketId),
}

/// Outcome of a non-blocking `recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recv {
    /// `n` bytes were copied out.
    Data(usize),
    /// No data available yet; the connection is open.
    WouldBlock,
    /// Orderly end of stream (peer closed and buffer drained).
    Closed,
    /// The connection was reset.
    Reset,
}

/// Errors from socket operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The socket handle does not name a live socket.
    BadSocket,
    /// Operation invalid in the socket's current state.
    BadState(TcpState),
    /// The port is already bound on this host.
    AddrInUse(u16),
    /// The connection was reset by the peer.
    ConnectionReset,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::BadSocket => write!(f, "bad socket handle"),
            NetError::BadState(s) => write!(f, "operation invalid in state {s:?}"),
            NetError::AddrInUse(p) => write!(f, "port {p} already in use"),
            NetError::ConnectionReset => write!(f, "connection reset by peer"),
        }
    }
}

impl std::error::Error for NetError {}

fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// The simulation: owns virtual time, hosts, links and sockets.
///
/// All socket calls are non-blocking; time only advances through
/// [`World::step`] / [`World::run_for`] / [`World::run_until`].
pub struct World {
    now: u64,
    next_event_seq: u64,
    next_iss: u32,
    events: BinaryHeap<Reverse<Scheduled>>,
    hosts: Vec<Host>,
    links: Vec<Link>,
    socks: Vec<Option<TcpSocket>>,
    udps: Vec<Option<UdpSock>>,
    seed: u64,
    trace: Option<Vec<TraceEntry>>,
    socket_events: VecDeque<SocketEvent>,
    socket_events_enabled: bool,
    registry: telemetry::Registry,
    /// Wire/stack counters.
    pub stats: Stats,
}

impl World {
    /// Creates an empty world; `seed` makes loss patterns reproducible.
    pub fn new(seed: u64) -> World {
        let registry = telemetry::Registry::new();
        let stats = Stats::register(&registry);
        World {
            now: 0,
            next_event_seq: 0,
            next_iss: 1,
            events: BinaryHeap::new(),
            hosts: Vec::new(),
            links: Vec::new(),
            socks: Vec::new(),
            udps: Vec::new(),
            seed,
            trace: None,
            socket_events: VecDeque::new(),
            socket_events_enabled: false,
            registry,
            stats,
        }
    }

    /// The world's telemetry registry. The simulator registers its own
    /// `net.*` counters here; layers built on the world (the serving
    /// loop, load generators) register theirs in the same registry so
    /// one snapshot covers the whole stack.
    pub fn telemetry(&self) -> &telemetry::Registry {
        &self.registry
    }

    /// Turns on readiness-event recording. Off by default so worlds with
    /// no event-driven consumer pay nothing and leak nothing.
    pub fn enable_socket_events(&mut self) {
        self.socket_events_enabled = true;
    }

    /// Drains every readiness event recorded since the last drain, in the
    /// order the transitions happened.
    pub fn take_socket_events(&mut self) -> Vec<SocketEvent> {
        self.socket_events.drain(..).collect()
    }

    fn push_event(&mut self, event: SocketEvent) {
        if self.socket_events_enabled {
            self.socket_events.push_back(event);
        }
    }

    /// Starts recording every transmitted packet (tcpdump-style).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The trace recorded so far (empty if tracing was never enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Clears the recorded trace, keeping tracing enabled.
    pub fn clear_trace(&mut self) {
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }

    fn record_trace(&mut self, packet: &Packet, dropped: bool) {
        let time_us = self.now;
        if let Some(t) = &mut self.trace {
            t.push(TraceEntry {
                time_us,
                src: packet.src,
                dst: packet.dst,
                summary: summarize(&packet.body),
                dropped,
            });
        }
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Adds a host with the given address.
    pub fn add_host(&mut self, ip: Ipv4) -> HostId {
        let id = HostId(self.hosts.len());
        self.hosts.push(Host {
            ip,
            icmp_inbox: VecDeque::new(),
            next_ephemeral: 49152,
        });
        id
    }

    /// The address of a host.
    pub fn host_ip(&self, host: HostId) -> Ipv4 {
        self.hosts[host.0].ip
    }

    /// Connects two hosts with a bidirectional link. The returned
    /// [`LinkId`] addresses the link for fault scripting
    /// ([`World::set_drop_rate`], [`World::set_corruption`]).
    pub fn link(&mut self, a: HostId, b: HostId, params: LinkParams) -> LinkId {
        let id = self.links.len();
        let rng = StdRng::seed_from_u64(self.seed ^ (id as u64) << 17);
        // The fault stream is keyed off the same (seed, link id) pair
        // but offset by a golden-ratio constant: reproducible
        // run-to-run, yet never aliasing the drop stream.
        let fault_rng =
            StdRng::seed_from_u64(self.seed ^ ((id as u64) << 17) ^ 0x9E37_79B9_7F4A_7C15);
        self.links.push(Link {
            a,
            b,
            params,
            busy_until: 0,
            rng,
            fault_rng,
            corrupt: None,
        });
        LinkId(id)
    }

    /// Rewrites a link's drop rate in place — the mid-session flap the
    /// static `LinkParams::with_drop_rate` cannot express. Latency and
    /// bandwidth are untouched; the link's drop RNG stream continues
    /// where it was, so a flap-and-restore replays byte-identically
    /// for a given world seed.
    pub fn set_drop_rate(&mut self, link: LinkId, rate: f64) {
        self.links[link.0].params.drop_rate = rate;
    }

    /// A link's current drop rate.
    #[must_use]
    pub fn drop_rate(&self, link: LinkId) -> f64 {
        self.links[link.0].params.drop_rate
    }

    /// Arms (or with `None` disarms) frame corruption on a link. While
    /// armed, every matching in-flight TCP payload consults the link's
    /// dedicated fault RNG and may have one byte flipped per
    /// [`Corruption`]; corrupted frames still deliver and are ACKed —
    /// the damage is the kind a TCP checksum misses, so only the
    /// application layer can catch it.
    pub fn set_corruption(&mut self, link: LinkId, spec: Option<Corruption>) {
        self.links[link.0].corrupt = spec;
    }

    fn schedule(&mut self, time: u64, event: Event) {
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        self.events.push(Reverse(Scheduled { time, seq, event }));
    }

    /// Virtual time of the earliest scheduled event, if any — the soonest
    /// moment at which any socket or wire state can change on its own.
    /// Callers that own the clock (the fleet scheduler) use this to
    /// fast-forward: advancing in one `run_for` to (or before) this
    /// time is indistinguishable from advancing microsecond by
    /// microsecond.
    pub fn next_event_time(&self) -> Option<u64> {
        self.events.peek().map(|Reverse(s)| s.time)
    }

    /// Processes the next event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(sch)) = self.events.pop() else {
            return false;
        };
        debug_assert!(sch.time >= self.now, "time went backwards");
        self.now = sch.time;
        match sch.event {
            Event::Deliver { host, packet } => self.deliver(host, packet),
            Event::Retransmit { sock, snapshot } => self.retransmit(sock, snapshot),
            Event::TimeWaitExpire { sock } => {
                if let Some(s) = self.sock_mut_opt(sock) {
                    if s.state == TcpState::TimeWait {
                        s.state = TcpState::Closed;
                    }
                }
            }
        }
        true
    }

    /// Runs until virtual time reaches `now + us` (or the queue drains).
    pub fn run_for(&mut self, us: u64) {
        let deadline = self.now + us;
        while let Some(Reverse(head)) = self.events.peek() {
            if head.time > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Steps until `pred` holds or the event queue drains or `max_steps`
    /// elapse. Returns whether the predicate held.
    pub fn run_until(&mut self, mut pred: impl FnMut(&World) -> bool, max_steps: usize) -> bool {
        for _ in 0..max_steps {
            if pred(self) {
                return true;
            }
            if !self.step() {
                return pred(self);
            }
        }
        pred(self)
    }

    // ---- wire --------------------------------------------------------

    fn transmit(&mut self, src_host: HostId, packet: Packet) {
        // Loopback.
        if packet.dst.ip == self.hosts[src_host.0].ip {
            self.record_trace(&packet, false);
            self.schedule(
                self.now + 1,
                Event::Deliver {
                    host: src_host,
                    packet,
                },
            );
            return;
        }
        let dst_ip = packet.dst.ip;
        let link_idx = self.links.iter().position(|l| {
            (l.a == src_host && self.hosts[l.b.0].ip == dst_ip)
                || (l.b == src_host && self.hosts[l.a.0].ip == dst_ip)
        });
        let Some(li) = link_idx else {
            self.stats.unroutable.inc();
            return;
        };
        let dst_host = {
            let l = &self.links[li];
            if l.a == src_host {
                l.b
            } else {
                l.a
            }
        };
        let wire_len = packet.wire_len() as u64;
        let l = &mut self.links[li];
        let start = l.busy_until.max(self.now);
        // serialization delay: bits / bps, in µs
        let tx_us = (wire_len * 8 * 1_000_000).div_ceil(l.params.bandwidth_bps);
        l.busy_until = start + tx_us;
        let arrival = l.busy_until + l.params.latency_us;
        let dropped = l.params.drop_rate > 0.0 && l.rng.gen::<f64>() < l.params.drop_rate;
        let mut packet = packet;
        let mut corrupted = false;
        if !dropped {
            // Scripted frame corruption: damage the in-flight copy only
            // (a retransmission re-reads the sender's clean buffer), and
            // only TCP payload bytes — the transport machinery keeps
            // working, the application stream carries the flip.
            if let (Some(spec), Transport::Tcp(ref mut seg)) = (&l.corrupt, &mut packet.body) {
                if spec.matches(&seg.payload) && l.fault_rng.gen::<f64>() < spec.prob {
                    spec.apply(&mut seg.payload);
                    corrupted = true;
                }
            }
        }
        self.record_trace(&packet, dropped);
        if dropped {
            self.stats.dropped.inc();
            return;
        }
        if corrupted {
            self.stats.corrupted.inc();
        }
        self.schedule(
            arrival,
            Event::Deliver {
                host: dst_host,
                packet,
            },
        );
    }

    fn deliver(&mut self, host: HostId, packet: Packet) {
        self.stats.delivered.inc();
        match packet.body {
            Transport::Tcp(ref _seg) => self.handle_tcp(host, packet),
            Transport::Udp(UdpDatagram { payload }) => {
                if let Some(u) = self
                    .udps
                    .iter_mut()
                    .flatten()
                    .find(|u| u.host == host && u.port == packet.dst.port)
                {
                    u.inbox.push_back((packet.src, payload));
                }
            }
            Transport::Icmp(echo) => {
                if echo.request {
                    let reply = Packet {
                        src: packet.dst,
                        dst: packet.src,
                        body: Transport::Icmp(IcmpEcho {
                            request: false,
                            ..echo
                        }),
                    };
                    self.transmit(host, reply);
                } else {
                    self.hosts[host.0]
                        .icmp_inbox
                        .push_back((packet.src.ip, echo));
                }
            }
        }
    }

    // ---- TCP ---------------------------------------------------------

    fn sock(&self, id: SocketId) -> &TcpSocket {
        self.socks[id.0].as_ref().expect("live socket")
    }

    fn sock_mut(&mut self, id: SocketId) -> &mut TcpSocket {
        self.socks[id.0].as_mut().expect("live socket")
    }

    fn sock_mut_opt(&mut self, id: SocketId) -> Option<&mut TcpSocket> {
        self.socks.get_mut(id.0).and_then(Option::as_mut)
    }

    fn alloc_sock(&mut self, sock: TcpSocket) -> SocketId {
        let id = SocketId(self.socks.len());
        self.socks.push(Some(sock));
        id
    }

    fn next_iss(&mut self) -> u32 {
        let iss = self.next_iss;
        self.next_iss = self.next_iss.wrapping_add(64_400);
        iss
    }

    /// Passive open: listen on `port`.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if another listener holds the port.
    pub fn tcp_listen(
        &mut self,
        host: HostId,
        port: u16,
        backlog: usize,
    ) -> Result<SocketId, NetError> {
        let in_use = self
            .socks
            .iter()
            .flatten()
            .any(|s| s.host == host && s.local.port == port && s.state == TcpState::Listen);
        if in_use {
            return Err(NetError::AddrInUse(port));
        }
        let ip = self.hosts[host.0].ip;
        let mut s = TcpSocket::new(host, Endpoint::new(ip, port));
        s.state = TcpState::Listen;
        s.backlog_limit = backlog.max(1);
        Ok(self.alloc_sock(s))
    }

    /// Active open toward `remote`.
    pub fn tcp_connect(&mut self, host: HostId, remote: Endpoint) -> SocketId {
        let ip = self.hosts[host.0].ip;
        let port = self.hosts[host.0].next_ephemeral;
        self.hosts[host.0].next_ephemeral =
            self.hosts[host.0].next_ephemeral.wrapping_add(1).max(49152);
        let iss = self.next_iss();
        let mut s = TcpSocket::new(host, Endpoint::new(ip, port));
        s.remote = Some(remote);
        s.state = TcpState::SynSent;
        s.iss = iss;
        s.snd_una = iss;
        s.snd_nxt = iss.wrapping_add(1);
        let id = self.alloc_sock(s);
        self.emit(id, iss, TcpFlags::SYN, Vec::new());
        self.arm_retransmit(id);
        id
    }

    /// Pops one established connection off a listener's backlog.
    pub fn tcp_accept(&mut self, listener: SocketId) -> Option<SocketId> {
        self.sock_mut_opt(listener)?.backlog.pop_front()
    }

    /// Number of established connections waiting in a listener's backlog.
    pub fn tcp_pending(&self, listener: SocketId) -> usize {
        self.socks[listener.0]
            .as_ref()
            .map_or(0, |s| s.backlog.len())
    }

    /// The connections waiting in a listener's backlog, in the order
    /// [`World::tcp_accept`] would pop them. A pure read.
    pub fn tcp_backlog(&self, listener: SocketId) -> impl Iterator<Item = SocketId> + '_ {
        self.socks[listener.0]
            .as_ref()
            .into_iter()
            .flat_map(|s| s.backlog.iter().copied())
    }

    /// Connection state of a socket.
    pub fn tcp_state(&self, id: SocketId) -> TcpState {
        self.socks[id.0]
            .as_ref()
            .map_or(TcpState::Closed, |s| s.state)
    }

    /// Whether the three-way handshake has completed.
    pub fn tcp_established(&self, id: SocketId) -> bool {
        matches!(
            self.tcp_state(id),
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2 | TcpState::CloseWait
        )
    }

    /// Remote endpoint once the connection is synchronised.
    pub fn tcp_peer(&self, id: SocketId) -> Option<Endpoint> {
        self.socks[id.0].as_ref().and_then(|s| s.remote)
    }

    /// Queues application data; returns how many bytes were accepted
    /// (bounded by the send buffer).
    ///
    /// # Errors
    ///
    /// [`NetError::BadState`] if the connection cannot carry data,
    /// [`NetError::ConnectionReset`] after an RST.
    pub fn tcp_send(&mut self, id: SocketId, data: &[u8]) -> Result<usize, NetError> {
        let s = self.sock_mut_opt(id).ok_or(NetError::BadSocket)?;
        if s.reset {
            return Err(NetError::ConnectionReset);
        }
        if !s.state.can_send() {
            return Err(NetError::BadState(s.state));
        }
        if s.fin_queued {
            return Err(NetError::BadState(s.state));
        }
        let room = SEND_BUFFER.saturating_sub(s.send_buf.len());
        let n = room.min(data.len());
        s.send_buf.extend(&data[..n]);
        self.try_transmit(id);
        Ok(n)
    }

    /// Non-blocking read into `buf`.
    pub fn tcp_recv(&mut self, id: SocketId, buf: &mut [u8]) -> Recv {
        let Some(s) = self.sock_mut_opt(id) else {
            return Recv::Reset;
        };
        if s.reset {
            return Recv::Reset;
        }
        if s.recv_buf.is_empty() {
            if s.peer_fin {
                return Recv::Closed;
            }
            return Recv::WouldBlock;
        }
        let n = buf.len().min(s.recv_buf.len());
        let (a, b) = s.recv_buf.as_slices();
        if n <= a.len() {
            buf[..n].copy_from_slice(&a[..n]);
        } else {
            buf[..a.len()].copy_from_slice(a);
            buf[a.len()..n].copy_from_slice(&b[..n - a.len()]);
        }
        s.recv_buf.drain(..n);
        // Draining the buffer reopens the receive window; advertise it so
        // a flow-controlled sender can resume.
        let update = s.remote.is_some()
            && matches!(
                s.state,
                TcpState::Established
                    | TcpState::FinWait1
                    | TcpState::FinWait2
                    | TcpState::CloseWait
            );
        if update {
            let seq = s.snd_nxt;
            self.emit(id, seq, TcpFlags::ACK, Vec::new());
        }
        Recv::Data(n)
    }

    /// Bytes readable right now.
    pub fn tcp_available(&self, id: SocketId) -> usize {
        self.socks[id.0].as_ref().map_or(0, TcpSocket::available)
    }

    /// The bytes a [`World::tcp_recv`] of `id` would deliver, without
    /// consuming them: a pure read, so it sends no window update and a
    /// later `tcp_recv` returns the same bytes. A reset connection
    /// delivers nothing.
    pub fn tcp_peek(&self, id: SocketId) -> impl Iterator<Item = u8> + '_ {
        self.socks[id.0]
            .as_ref()
            .filter(|s| !s.reset)
            .into_iter()
            .flat_map(|s| s.recv_buf.iter().copied())
    }

    /// Bytes not yet acknowledged by the peer (0 once everything sent has
    /// arrived).
    pub fn tcp_unacked(&self, id: SocketId) -> usize {
        self.socks[id.0].as_ref().map_or(0, |s| s.send_buf.len())
    }

    /// Whether the peer will send no more data: its FIN has been
    /// sequenced, the connection was reset, or the socket is gone.
    pub fn tcp_peer_closed(&self, id: SocketId) -> bool {
        self.socks[id.0]
            .as_ref()
            .is_none_or(|s| s.peer_fin || s.reset)
    }

    /// Whether the connection was reset by the peer.
    pub fn tcp_reset(&self, id: SocketId) -> bool {
        self.socks[id.0].as_ref().is_some_and(|s| s.reset)
    }

    /// Send-buffer bytes `tcp_send` would accept right now (0 when the
    /// connection cannot carry data or a close has been queued).
    pub fn tcp_send_room(&self, id: SocketId) -> usize {
        self.socks[id.0].as_ref().map_or(0, |s| {
            if s.reset || !s.state.can_send() || s.fin_queued {
                0
            } else {
                SEND_BUFFER.saturating_sub(s.send_buf.len())
            }
        })
    }

    /// Orderly close: sends FIN after any buffered data.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for a dead handle; closing twice is a
    /// no-op.
    pub fn tcp_close(&mut self, id: SocketId) -> Result<(), NetError> {
        let s = self.sock_mut_opt(id).ok_or(NetError::BadSocket)?;
        match s.state {
            TcpState::Listen | TcpState::SynSent | TcpState::Closed => {
                s.state = TcpState::Closed;
                return Ok(());
            }
            _ => {}
        }
        if s.fin_queued {
            return Ok(());
        }
        s.fin_queued = true;
        self.try_transmit(id);
        Ok(())
    }

    /// Hard reset: sends RST and abandons the socket.
    pub fn tcp_abort(&mut self, id: SocketId) {
        let Some(s) = self.sock_mut_opt(id) else {
            return;
        };
        if let Some(remote) = s.remote {
            let seg = TcpSegment {
                seq: s.snd_nxt,
                ack: s.rcv_nxt,
                flags: TcpFlags::RST,
                window: 0,
                payload: Vec::new(),
            };
            let pkt = Packet {
                src: s.local,
                dst: remote,
                body: Transport::Tcp(seg),
            };
            let host = s.host;
            s.state = TcpState::Closed;
            s.reset = true;
            self.transmit(host, pkt);
        } else {
            s.state = TcpState::Closed;
        }
    }

    fn emit(&mut self, id: SocketId, seq: u32, flags: TcpFlags, payload: Vec<u8>) {
        let s = self.sock(id);
        let Some(remote) = s.remote else { return };
        let seg = TcpSegment {
            seq,
            ack: s.rcv_nxt,
            flags,
            window: s.advertised_window(),
            payload,
        };
        let pkt = Packet {
            src: s.local,
            dst: remote,
            body: Transport::Tcp(seg),
        };
        let host = s.host;
        self.transmit(host, pkt);
    }

    fn arm_retransmit(&mut self, id: SocketId) {
        let (snapshot, rto) = {
            let s = self.sock_mut(id);
            if s.timer_pending {
                return;
            }
            s.timer_pending = true;
            (s.snd_una, s.rto_us)
        };
        let at = self.now + rto;
        self.schedule(at, Event::Retransmit { sock: id, snapshot });
    }

    fn retransmit(&mut self, id: SocketId, snapshot: u32) {
        {
            let Some(s) = self.sock_mut_opt(id) else {
                return;
            };
            s.timer_pending = false;
            if s.reset || s.snd_una == s.snd_nxt {
                return; // nothing outstanding; timer dies until re-armed
            }
            match s.state {
                TcpState::Closed | TcpState::Listen | TcpState::TimeWait => return,
                _ => {}
            }
            if s.snd_una != snapshot {
                // Progress since arming: no retransmission, but keep the
                // timer alive for the still-outstanding tail.
                self.arm_retransmit(id);
                return;
            }
            let s = self.sock_mut(id);
            s.rto_us = (s.rto_us * 2).min(MAX_RTO_US);
        }
        self.stats.retransmits.inc();
        let state = self.sock(id).state;
        match state {
            TcpState::SynSent => {
                let iss = self.sock(id).iss;
                self.emit(id, iss, TcpFlags::SYN, Vec::new());
            }
            TcpState::SynReceived => {
                let iss = self.sock(id).iss;
                self.emit(id, iss, TcpFlags::SYN_ACK, Vec::new());
            }
            _ => {
                let (seq, chunk, fin_only) = {
                    let s = self.sock(id);
                    let outstanding_data = s
                        .send_buf
                        .len()
                        .min(s.snd_nxt.wrapping_sub(s.snd_una) as usize);
                    if outstanding_data > 0 {
                        let chunk = copy_range(&s.send_buf, 0, outstanding_data.min(MSS));
                        (s.snd_una, chunk, false)
                    } else {
                        (s.snd_una, Vec::new(), s.fin_seq == Some(s.snd_una))
                    }
                };
                if fin_only {
                    self.emit(id, seq, TcpFlags::FIN_ACK, Vec::new());
                } else if !chunk.is_empty() {
                    self.emit(id, seq, TcpFlags::ACK, chunk);
                }
            }
        }
        self.arm_retransmit(id);
    }

    fn try_transmit(&mut self, id: SocketId) {
        loop {
            let (seq, chunk) = {
                let s = self.sock(id);
                if !matches!(
                    s.state,
                    TcpState::Established
                        | TcpState::CloseWait
                        | TcpState::FinWait1
                        | TcpState::LastAck
                ) {
                    break;
                }
                let in_flight = s.snd_nxt.wrapping_sub(s.snd_una) as usize;
                let unsent = s.send_buf.len().saturating_sub(in_flight);
                // Persist-probe guarantee: with nothing in flight, always
                // push at least one segment even into a closed window, so
                // a lost window update cannot deadlock the connection.
                let window_room = if in_flight == 0 {
                    usize::from(s.peer_window).max(MSS)
                } else {
                    usize::from(s.peer_window).saturating_sub(in_flight)
                };
                let n = unsent.min(window_room).min(MSS);
                if n == 0 {
                    break;
                }
                (s.snd_nxt, copy_range(&s.send_buf, in_flight, n))
            };
            let n = chunk.len() as u32;
            self.emit(id, seq, TcpFlags::ACK, chunk);
            let s = self.sock_mut(id);
            s.snd_nxt = s.snd_nxt.wrapping_add(n);
            self.arm_retransmit(id);
        }

        // FIN once everything queued has been transmitted.
        let send_fin = {
            let s = self.sock(id);
            s.fin_queued
                && s.fin_seq.is_none()
                && s.state.can_send()
                && s.snd_nxt.wrapping_sub(s.snd_una) as usize == s.send_buf.len()
        };
        if send_fin {
            let (seq, new_state) = {
                let s = self.sock_mut(id);
                let seq = s.snd_nxt;
                s.fin_seq = Some(seq);
                s.snd_nxt = s.snd_nxt.wrapping_add(1);
                s.state = match s.state {
                    TcpState::Established => TcpState::FinWait1,
                    TcpState::CloseWait => TcpState::LastAck,
                    other => other,
                };
                (seq, s.state)
            };
            let _ = new_state;
            self.emit(id, seq, TcpFlags::FIN_ACK, Vec::new());
            self.arm_retransmit(id);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn handle_tcp(&mut self, host: HostId, packet: Packet) {
        let Transport::Tcp(seg) = &packet.body else {
            unreachable!("handle_tcp only sees TCP");
        };
        let seg = seg.clone();

        // Exact four-tuple match first.
        let exact = self.socks.iter().position(|s| {
            s.as_ref().is_some_and(|s| {
                s.host == host
                    && s.local.port == packet.dst.port
                    && s.remote == Some(packet.src)
                    && s.state != TcpState::Closed
            })
        });
        let listener = || {
            self.socks.iter().position(|s| {
                s.as_ref().is_some_and(|s| {
                    s.host == host && s.local.port == packet.dst.port && s.state == TcpState::Listen
                })
            })
        };

        let Some(idx) = exact.or_else(listener) else {
            // No socket: answer everything but RST with RST.
            if !seg.flags.rst {
                let rst = Packet {
                    src: packet.dst,
                    dst: packet.src,
                    body: Transport::Tcp(TcpSegment {
                        seq: seg.ack,
                        ack: seg.seq.wrapping_add(seg.seq_len()),
                        flags: TcpFlags::RST,
                        window: 0,
                        payload: Vec::new(),
                    }),
                };
                self.transmit(host, rst);
            }
            return;
        };
        let id = SocketId(idx);

        if seg.flags.rst {
            let s = self.sock_mut(id);
            if s.state != TcpState::Listen {
                s.reset = true;
                s.state = TcpState::Closed;
                self.push_event(SocketEvent::PeerClosed(id));
            }
            return;
        }

        match self.sock(id).state {
            TcpState::Listen => {
                if !seg.flags.syn {
                    return;
                }
                let (limit, len) = {
                    let s = self.sock(id);
                    (s.backlog_limit, s.backlog.len())
                };
                let half_open = self
                    .socks
                    .iter()
                    .flatten()
                    .filter(|ch| ch.parent == Some(id) && ch.state == TcpState::SynReceived)
                    .count();
                if len + half_open >= limit {
                    return; // silently drop: client will retransmit the SYN
                }
                let iss = self.next_iss();
                let local = Endpoint::new(self.hosts[host.0].ip, packet.dst.port);
                let mut child = TcpSocket::new(host, local);
                child.remote = Some(packet.src);
                child.state = TcpState::SynReceived;
                child.iss = iss;
                child.snd_una = iss;
                child.snd_nxt = iss.wrapping_add(1);
                child.rcv_nxt = seg.seq.wrapping_add(1);
                child.peer_window = seg.window;
                child.parent = Some(id);
                let child_id = self.alloc_sock(child);
                self.emit(child_id, iss, TcpFlags::SYN_ACK, Vec::new());
                self.arm_retransmit(child_id);
            }
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.sock(id).snd_nxt {
                    let s = self.sock_mut(id);
                    s.snd_una = seg.ack;
                    s.rcv_nxt = seg.seq.wrapping_add(1);
                    s.peer_window = seg.window;
                    s.state = TcpState::Established;
                    s.rto_us = INITIAL_RTO_US;
                    let rcv = s.rcv_nxt;
                    let _ = rcv;
                    let seq = s.snd_nxt;
                    self.push_event(SocketEvent::Established(id));
                    self.emit(id, seq, TcpFlags::ACK, Vec::new());
                    self.try_transmit(id);
                }
            }
            _ => self.segment_arrives(id, seg),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn segment_arrives(&mut self, id: SocketId, seg: TcpSegment) {
        let mut need_ack = false;

        // --- ACK processing ------------------------------------------
        if seg.flags.ack {
            let (una, nxt) = {
                let s = self.sock(id);
                (s.snd_una, s.snd_nxt)
            };
            if seq_lt(una, seg.ack) && seq_le(seg.ack, nxt) {
                let s = self.sock_mut(id);
                let mut acked = seg.ack.wrapping_sub(s.snd_una) as usize;
                // A FIN occupies one sequence number not present in the
                // data buffer.
                if let Some(f) = s.fin_seq {
                    if seq_lt(f, seg.ack) {
                        acked -= 1;
                    }
                }
                let freed = acked.min(s.send_buf.len());
                s.send_buf.drain(..freed);
                s.snd_una = seg.ack;
                s.rto_us = INITIAL_RTO_US;
                s.peer_window = seg.window;
                if freed > 0 {
                    self.push_event(SocketEvent::WindowOpen(id));
                }

                // Handshake completion for passive opens.
                let s = self.sock_mut(id);
                if s.state == TcpState::SynReceived {
                    s.state = TcpState::Established;
                    let parent = s.parent;
                    self.push_event(SocketEvent::Established(id));
                    if let Some(parent) = parent {
                        if let Some(p) = self.sock_mut_opt(parent) {
                            p.backlog.push_back(id);
                            self.push_event(SocketEvent::AcceptReady(parent));
                        }
                    }
                }

                // FIN acknowledged?
                let s = self.sock_mut(id);
                if let Some(f) = s.fin_seq {
                    if seq_lt(f, seg.ack) {
                        s.state = match s.state {
                            TcpState::FinWait1 => TcpState::FinWait2,
                            TcpState::Closing => TcpState::TimeWait,
                            TcpState::LastAck => TcpState::Closed,
                            other => other,
                        };
                        if s.state == TcpState::TimeWait {
                            let at = self.now + TIME_WAIT_US;
                            self.schedule(at, Event::TimeWaitExpire { sock: id });
                        }
                    }
                }
            } else {
                let s = self.sock_mut(id);
                let was_zero = s.peer_window == 0;
                s.peer_window = seg.window;
                if was_zero && seg.window > 0 {
                    self.push_event(SocketEvent::WindowOpen(id));
                }
            }
        }

        // --- payload processing --------------------------------------
        if !seg.payload.is_empty() {
            let can_receive = matches!(
                self.sock(id).state,
                TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
            );
            if can_receive {
                let s = self.sock_mut(id);
                let was_empty = s.recv_buf.is_empty();
                if seg.seq == s.rcv_nxt {
                    // Receive-window enforcement: accept only the prefix
                    // that fits in the advertised window. The dropped tail
                    // stays unacknowledged; the sender retransmits it after
                    // a read reopens the window (tcp_recv advertises the
                    // update).
                    let room = RECV_WINDOW.saturating_sub(s.recv_buf.len());
                    let take = seg.payload.len().min(room);
                    s.rcv_nxt = s.rcv_nxt.wrapping_add(take as u32);
                    s.recv_buf.extend(&seg.payload[..take]);
                    let mut delivered = take as u64;
                    // Drain any out-of-order segments that now fit.
                    while take == seg.payload.len() {
                        let Some((&q, data)) = s.ooo.first_key_value() else {
                            break;
                        };
                        if q != s.rcv_nxt {
                            if seq_lt(q, s.rcv_nxt) {
                                // stale duplicate
                                s.ooo.pop_first();
                                continue;
                            }
                            break;
                        }
                        if s.recv_buf.len() + data.len() > RECV_WINDOW {
                            break;
                        }
                        let (_, data) = s.ooo.pop_first().expect("checked non-empty");
                        s.rcv_nxt = s.rcv_nxt.wrapping_add(data.len() as u32);
                        delivered += data.len() as u64;
                        s.recv_buf.extend(&data);
                    }
                    self.stats.tcp_bytes_delivered.add(delivered);
                    if was_empty && !self.sock(id).recv_buf.is_empty() {
                        self.push_event(SocketEvent::BytesReady(id));
                    }
                } else if seq_lt(self.sock(id).rcv_nxt, seg.seq) {
                    let s = self.sock_mut(id);
                    s.ooo.entry(seg.seq).or_insert_with(|| seg.payload.clone());
                }
                need_ack = true;
            }
        }

        // --- FIN processing -------------------------------------------
        if seg.flags.fin {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            let s = self.sock_mut(id);
            if fin_seq == s.rcv_nxt && !s.peer_fin {
                s.rcv_nxt = s.rcv_nxt.wrapping_add(1);
                s.peer_fin = true;
                s.state = match s.state {
                    TcpState::Established => TcpState::CloseWait,
                    TcpState::FinWait1 => TcpState::Closing,
                    TcpState::FinWait2 => TcpState::TimeWait,
                    other => other,
                };
                if s.state == TcpState::TimeWait {
                    let at = self.now + TIME_WAIT_US;
                    self.schedule(at, Event::TimeWaitExpire { sock: id });
                }
                self.push_event(SocketEvent::PeerClosed(id));
                need_ack = true;
            } else if seq_lt(fin_seq, s.rcv_nxt) {
                need_ack = true; // retransmitted FIN: re-ACK
            }
        }

        // A pure duplicate data segment (already received) still deserves
        // an ACK so the sender stops retransmitting; likewise a
        // retransmitted SYN-ACK reaching an established connection (its
        // final handshake ACK was lost).
        if (!seg.payload.is_empty() || seg.flags.syn) && !need_ack {
            need_ack = true;
        }

        // --- replies ---------------------------------------------------
        self.try_transmit(id);
        if need_ack {
            let seq = self.sock(id).snd_nxt;
            // A FIN we already sent occupies snd_nxt-1; bare ACKs use
            // snd_nxt regardless, which peers accept.
            self.emit(id, seq, TcpFlags::ACK, Vec::new());
        }
    }

    // ---- UDP ----------------------------------------------------------

    /// Binds a UDP socket.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if the port is taken on this host.
    pub fn udp_bind(&mut self, host: HostId, port: u16) -> Result<UdpId, NetError> {
        if self
            .udps
            .iter()
            .flatten()
            .any(|u| u.host == host && u.port == port)
        {
            return Err(NetError::AddrInUse(port));
        }
        let id = UdpId(self.udps.len());
        self.udps.push(Some(UdpSock {
            host,
            port,
            inbox: VecDeque::new(),
        }));
        Ok(id)
    }

    /// Sends a datagram.
    pub fn udp_send_to(&mut self, id: UdpId, dst: Endpoint, payload: &[u8]) {
        let Some(u) = self.udps.get(id.0).and_then(Option::as_ref) else {
            return;
        };
        let src = Endpoint::new(self.hosts[u.host.0].ip, u.port);
        let host = u.host;
        let pkt = Packet {
            src,
            dst,
            body: Transport::Udp(UdpDatagram {
                payload: payload.to_vec(),
            }),
        };
        self.transmit(host, pkt);
    }

    /// Receives a pending datagram, if any.
    pub fn udp_recv_from(&mut self, id: UdpId) -> Option<(Endpoint, Vec<u8>)> {
        self.udps.get_mut(id.0)?.as_mut()?.inbox.pop_front()
    }

    // ---- ICMP ---------------------------------------------------------

    /// Sends an ICMP echo request.
    pub fn ping(&mut self, host: HostId, dst: Ipv4, ident: u16, seq: u16) {
        let src = Endpoint::new(self.hosts[host.0].ip, 0);
        let pkt = Packet {
            src,
            dst: Endpoint::new(dst, 0),
            body: Transport::Icmp(IcmpEcho {
                request: true,
                ident,
                seq,
            }),
        };
        self.transmit(host, pkt);
    }

    /// Pops a received echo reply.
    pub fn ping_reply(&mut self, host: HostId) -> Option<(Ipv4, IcmpEcho)> {
        self.hosts[host.0].icmp_inbox.pop_front()
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now_us", &self.now)
            .field("hosts", &self.hosts.len())
            .field("links", &self.links.len())
            .field("sockets", &self.socks.len())
            .field("pending_events", &self.events.len())
            .field("stats", &self.stats)
            .finish()
    }
}
