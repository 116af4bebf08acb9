//! A simulated TCP load balancer: one world host that accepts client
//! connections on a front port and proxies each to one of a set of
//! backend listeners.
//!
//! The balancer is a *passive* world participant — it never advances
//! virtual time. Whoever owns the clock (a test driver, the
//! `rmc2000::fleet` scheduler) calls [`LoadBalancer::pump`] between time
//! slices; a pump accepts whatever is pending, routes new sessions by
//! [`LbPolicy`], shuttles buffered bytes both ways, propagates FINs, and
//! fails over connections whose backend never answers (a dead link, a
//! full accept queue that never drains). Every decision is a
//! deterministic function of world state, so runs are byte-identical for
//! identical workloads.

use telemetry::Counter;

use crate::addr::{Endpoint, Ipv4};
use crate::attach::SimHost;
use crate::tcp::SocketId;
use crate::world::{Recv, World};
use std::cell::RefCell;
use std::rc::Rc;

/// How a new client session picks its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbPolicy {
    /// Cycle through the healthy backends in order.
    RoundRobin,
    /// Pick the healthy backend with the fewest sessions in flight
    /// (ties broken by index).
    LeastOpen,
}

/// Per-backend bookkeeping, exposed to tests via
/// [`LoadBalancer::backend_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendStats {
    /// Where this backend listens.
    pub addr: Endpoint,
    /// Sessions currently routed here (connecting or established).
    pub inflight: usize,
    /// Most sessions ever in flight here at once.
    pub peak_inflight: usize,
    /// Sessions that finished here.
    pub served: u64,
    /// Connect attempts that timed out or were reset.
    pub failures: u64,
    /// Established sessions torn down for making no progress past the
    /// stall timeout ([`LoadBalancer::set_stall_timeout_us`]).
    pub stalls: u64,
    /// Times a dead-marked backend came back: a probe connect
    /// established and routing resumed.
    pub revivals: u64,
    /// Marked unhealthy: skipped by routing while any healthy backend
    /// remains (until a [`LoadBalancer::set_retry_after_us`] probe
    /// succeeds).
    pub dead: bool,
}

struct Backend {
    stats: BackendStats,
    /// When the backend was (last) marked dead, or the last probe was
    /// dispatched — the reference point for the retry clock.
    dead_since_us: u64,
}

impl Backend {
    fn route_to(&mut self) {
        let s = &mut self.stats;
        s.inflight += 1;
        s.peak_inflight = s.peak_inflight.max(s.inflight);
    }
}

struct Session {
    client: SocketId,
    upstream: SocketId,
    backend: usize,
    /// When the current upstream connect attempt started.
    connect_started_us: u64,
    /// Backends already tried (and failed) for this session.
    tried: Vec<usize>,
    /// Bytes read from the client, not yet accepted by the upstream
    /// send buffer.
    up: Vec<u8>,
    /// Bytes read from the upstream, not yet accepted by the client
    /// send buffer.
    down: Vec<u8>,
    /// FIN propagated to the upstream (client side drained + closed).
    up_closed: bool,
    /// FIN propagated to the client (upstream side drained + closed).
    down_closed: bool,
    /// The upstream connect has been observed established (used to
    /// detect the establishment edge for revival bookkeeping).
    up_established: bool,
    /// Last virtual time any byte or FIN moved through this session —
    /// the stall-timeout reference point.
    last_progress_us: u64,
}

/// The `lb.*` counters the balancer reports.
#[derive(Debug, Clone)]
pub struct LbCounters {
    /// Client connections accepted on the front port.
    pub accepts: Counter,
    /// Bytes shuttled client → backend.
    pub up_bytes: Counter,
    /// Bytes shuttled backend → client.
    pub down_bytes: Counter,
    /// Upstream connect attempts that failed over to another backend.
    pub failovers: Counter,
    /// Sessions torn down with no backend left to try.
    pub unrouted: Counter,
    /// Sessions completed (both directions closed).
    pub closed: Counter,
    /// Backends transitioned healthy → dead.
    pub dead_marks: Counter,
    /// Dead backends brought back by a successful probe connect.
    pub revivals: Counter,
    /// Established sessions torn down by the stall timeout.
    pub stalls: Counter,
}

impl LbCounters {
    fn register(registry: &telemetry::Registry) -> LbCounters {
        LbCounters {
            accepts: registry.counter("lb.accepts", &[]),
            up_bytes: registry.counter("lb.up_bytes", &[]),
            down_bytes: registry.counter("lb.down_bytes", &[]),
            failovers: registry.counter("lb.failovers", &[]),
            unrouted: registry.counter("lb.unrouted", &[]),
            closed: registry.counter("lb.closed", &[]),
            dead_marks: registry.counter("lb.dead_marks", &[]),
            revivals: registry.counter("lb.revivals", &[]),
            stalls: registry.counter("lb.stalls", &[]),
        }
    }
}

/// Virtual µs an upstream connect may sit unestablished before the
/// balancer declares the backend dead and fails the session over.
pub const CONNECT_TIMEOUT_US: u64 = 5_000;

/// A proxying TCP load balancer attached to one world host.
pub struct LoadBalancer {
    host: SimHost,
    listener: SocketId,
    policy: LbPolicy,
    backends: Vec<Backend>,
    sessions: Vec<Session>,
    /// Accepted clients waiting for a backend with handle capacity
    /// (only with [`LoadBalancer::set_max_inflight`]), in accept order.
    waiting: std::collections::VecDeque<SocketId>,
    /// Per-backend session cap for new routings; a backend at the cap is
    /// held off until one of its sessions finishes.
    max_inflight: Option<usize>,
    /// Virtual µs after dead-marking before a dead backend is offered
    /// one probe connection again; `None` (the default) keeps the
    /// legacy behaviour: dead stays dead for the run.
    retry_after_us: Option<u64>,
    /// Virtual µs an established session may sit with no bytes moving
    /// before it is torn down and its backend dead-marked; `None` (the
    /// default) never stalls a session out.
    stall_timeout_us: Option<u64>,
    rr_next: usize,
    counters: LbCounters,
    /// Per-backend `lb.backend.served{backend="i"}` counters.
    backend_served: Vec<Counter>,
    /// Per-backend `lb.backend.failures{backend="i"}` counters.
    backend_failures: Vec<Counter>,
    /// Per-backend `lb.backend.revivals{backend="i"}` counters.
    backend_revivals: Vec<Counter>,
    /// Virtual µs each failed upstream connect sat before the balancer
    /// gave up on it (the failover-latency book), in failure order.
    failover_latency_us: Vec<u64>,
}

impl LoadBalancer {
    /// Attaches a new balancer host to `world`, listening on `port`.
    ///
    /// # Panics
    ///
    /// If the front port cannot be bound (already in use on this host).
    pub fn attach(
        world: &Rc<RefCell<World>>,
        name: &str,
        ip: Ipv4,
        port: u16,
        backlog: usize,
        policy: LbPolicy,
    ) -> LoadBalancer {
        let mut host = SimHost::attach(world, name, ip);
        let listener = host.listen(port, backlog).expect("front port free");
        let counters = LbCounters::register(world.borrow().telemetry());
        LoadBalancer {
            host,
            listener,
            policy,
            backends: Vec::new(),
            sessions: Vec::new(),
            waiting: std::collections::VecDeque::new(),
            max_inflight: None,
            retry_after_us: None,
            stall_timeout_us: None,
            rr_next: 0,
            counters,
            backend_served: Vec::new(),
            backend_failures: Vec::new(),
            backend_revivals: Vec::new(),
            failover_latency_us: Vec::new(),
        }
    }

    /// Caps sessions routed to any one backend; accepted clients beyond
    /// the fleet-wide capacity wait (in accept order) until a handle
    /// frees. Models the boards' fixed connection-handle supply.
    pub fn set_max_inflight(&mut self, cap: Option<usize>) {
        self.max_inflight = cap;
    }

    /// Lets a dead-marked backend be re-probed: once `Some(gap)` µs
    /// have passed since the dead mark (or the previous probe), routing
    /// offers the backend one probe connection; if it establishes, the
    /// backend is un-dead-marked (a *revival*) and rejoins the pool.
    /// `None` (the default) keeps the legacy contract — dead stays dead
    /// for the rest of the run.
    pub fn set_retry_after_us(&mut self, gap: Option<u64>) {
        self.retry_after_us = gap;
    }

    /// Arms the established-session stall timeout: a session with no
    /// bytes or FINs moving for `Some(gap)` µs is aborted on both sides
    /// and its backend dead-marked — the only way sessions pinned to a
    /// wedged board (whose TCP stack still answers, but whose firmware
    /// never will) ever resolve. Must exceed the longest legitimate
    /// guest compute gap. `None` (the default) never times a session
    /// out.
    pub fn set_stall_timeout_us(&mut self, gap: Option<u64>) {
        self.stall_timeout_us = gap;
    }

    /// The failover-latency book: virtual µs each failed upstream
    /// connect waited before the balancer gave up and moved the session
    /// on, in failure order.
    pub fn failover_latencies_us(&self) -> &[u64] {
        &self.failover_latency_us
    }

    /// Registers a backend listener. Returns its index.
    pub fn add_backend(&mut self, addr: Endpoint) -> usize {
        let idx = self.backends.len();
        let label = idx.to_string();
        {
            let world = self.host.world();
            let w = world.borrow();
            let reg = w.telemetry();
            let labels = [("backend", label.as_str())];
            self.backend_served
                .push(reg.counter("lb.backend.served", &labels));
            self.backend_failures
                .push(reg.counter("lb.backend.failures", &labels));
            self.backend_revivals
                .push(reg.counter("lb.backend.revivals", &labels));
        }
        self.backends.push(Backend {
            stats: BackendStats {
                addr,
                inflight: 0,
                peak_inflight: 0,
                served: 0,
                failures: 0,
                stalls: 0,
                revivals: 0,
                dead: false,
            },
            dead_since_us: 0,
        });
        idx
    }

    /// The balancer's host handle (for linking it to clients and boards).
    pub fn host(&self) -> &SimHost {
        &self.host
    }

    /// The counters this balancer reports through.
    pub fn counters(&self) -> &LbCounters {
        &self.counters
    }

    /// Sessions currently proxied (connecting or established).
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Accepted clients held off waiting for backend handle capacity.
    pub fn waiting_sessions(&self) -> usize {
        self.waiting.len()
    }

    /// Per-backend routing statistics, in backend-index order.
    pub fn backend_stats(&self) -> Vec<BackendStats> {
        self.backends.iter().map(|b| b.stats.clone()).collect()
    }

    /// Picks a backend for a new (or failed-over) session, excluding
    /// `tried`. Healthy backends are preferred; when every backend is
    /// dead the least-recently-failed still gets the traffic (last
    /// resort beats a hard error). With `respect_cap`, backends at the
    /// [`LoadBalancer::set_max_inflight`] cap are held off — `None` then
    /// means "wait", and the caller keeps the client queued. Failover
    /// re-picks ignore the cap: a session mid-flight beats strict
    /// capacity. `None` without the cap only when `tried` exhausts the
    /// set.
    ///
    /// With [`LoadBalancer::set_retry_after_us`], a dead backend whose
    /// retry clock has expired counts as healthy for one probe pick;
    /// picking it resets the clock so concurrent arrivals don't gang up
    /// on a backend that may still be down.
    fn pick(&mut self, tried: &[usize], respect_cap: bool, now: u64) -> Option<usize> {
        let cap = if respect_cap { self.max_inflight } else { None };
        let retry = self.retry_after_us;
        let eligible = |dead_ok: bool, i: usize, b: &Backend| -> bool {
            let probe_due = b.stats.dead
                && retry.is_some_and(|gap| now.saturating_sub(b.dead_since_us) >= gap);
            !tried.contains(&i)
                && (dead_ok || !b.stats.dead || probe_due)
                && cap.is_none_or(|m| b.stats.inflight < m)
        };
        for dead_ok in [false, true] {
            let chosen = match self.policy {
                LbPolicy::RoundRobin => (0..self.backends.len())
                    .map(|k| (self.rr_next + k) % self.backends.len())
                    .find(|&i| eligible(dead_ok, i, &self.backends[i])),
                LbPolicy::LeastOpen => self
                    .backends
                    .iter()
                    .enumerate()
                    .filter(|(i, b)| eligible(dead_ok, *i, b))
                    .min_by_key(|(i, b)| (b.stats.inflight, *i))
                    .map(|(i, _)| i),
            };
            if let Some(i) = chosen {
                if self.policy == LbPolicy::RoundRobin {
                    self.rr_next = (i + 1) % self.backends.len();
                }
                if self.backends[i].stats.dead {
                    // A probe pick: restart the retry clock.
                    self.backends[i].dead_since_us = now;
                }
                return Some(i);
            }
        }
        None
    }

    /// One deterministic service round: accept, route, shuttle,
    /// propagate closes, fail over. Never advances time.
    ///
    /// # Panics
    ///
    /// If called with no backends registered.
    pub fn pump(&mut self) {
        assert!(!self.backends.is_empty(), "load balancer has no backends");
        let now = self.host.now();

        // Accept every pending client, then route the wait queue in
        // accept order for as long as capacity lasts.
        while let Some(client) = self.host.accept(self.listener) {
            self.counters.accepts.inc();
            self.waiting.push_back(client);
        }
        while let Some(&client) = self.waiting.front() {
            let Some(backend) = self.pick(&[], true, now) else {
                break; // every backend at its handle cap — hold off
            };
            self.waiting.pop_front();
            let upstream = self.host.connect(self.backends[backend].stats.addr);
            self.backends[backend].route_to();
            self.sessions.push(Session {
                client,
                upstream,
                backend,
                connect_started_us: now,
                tried: Vec::new(),
                up: Vec::new(),
                down: Vec::new(),
                up_closed: false,
                down_closed: false,
                up_established: false,
                last_progress_us: now,
            });
        }

        // Sessions are taken out of `self` for the service loop so
        // `pick` (which needs `&mut self` for round-robin state) stays
        // callable; nothing else touches the session list meanwhile.
        let mut sessions = std::mem::take(&mut self.sessions);
        let mut finished: Vec<usize> = Vec::new();
        for (si, s) in sessions.iter_mut().enumerate() {
            // Upstream health: a connect that sits unestablished past the
            // timeout (dead link: the SYN is simply gone) or comes back
            // reset marks the backend dead and moves the session on.
            if !self.host.established(s.upstream) && !s.up_closed {
                let timed_out = now.saturating_sub(s.connect_started_us) >= CONNECT_TIMEOUT_US;
                let reset = self.host.world().borrow().tcp_reset(s.upstream);
                if timed_out || reset {
                    self.host.abort(s.upstream);
                    self.failover_latency_us
                        .push(now.saturating_sub(s.connect_started_us));
                    let b = &mut self.backends[s.backend];
                    b.stats.inflight -= 1;
                    b.stats.failures += 1;
                    self.backend_failures[s.backend].inc();
                    if !b.stats.dead {
                        b.stats.dead = true;
                        self.counters.dead_marks.inc();
                    }
                    b.dead_since_us = now;
                    s.tried.push(s.backend);
                    match self.pick(&s.tried, false, now) {
                        Some(next) => {
                            self.counters.failovers.inc();
                            s.backend = next;
                            s.upstream = self.host.connect(self.backends[next].stats.addr);
                            s.connect_started_us = now;
                            self.backends[next].route_to();
                        }
                        None => {
                            self.counters.unrouted.inc();
                            self.host.abort(s.client);
                            finished.push(si);
                            continue;
                        }
                    }
                }
                if !self.host.established(s.upstream) {
                    continue; // nothing to shuttle yet
                }
            }

            // The upstream just came up. If its backend was dead-marked
            // this is the probe succeeding: un-dead-mark and let routing
            // resume (a revival). Only the establishment edge counts —
            // old sessions riding out a flap must not revive a backend
            // their own connect never re-proved.
            if !s.up_established && self.host.established(s.upstream) {
                s.up_established = true;
                s.last_progress_us = now;
                let b = &mut self.backends[s.backend];
                if b.stats.dead {
                    b.stats.dead = false;
                    b.stats.revivals += 1;
                    self.backend_revivals[s.backend].inc();
                    self.counters.revivals.inc();
                }
            }

            // Shuttle bytes, each direction: drain the source socket into
            // the session buffer, then push as much as the sink accepts.
            let mut moved = 0usize;
            moved += shuttle(
                &mut self.host,
                s.client,
                s.upstream,
                &mut s.up,
                &self.counters.up_bytes,
            );
            moved += shuttle(
                &mut self.host,
                s.upstream,
                s.client,
                &mut s.down,
                &self.counters.down_bytes,
            );

            // FIN propagation, once the drained direction is flushed.
            if !s.up_closed && s.up.is_empty() && side_closed(&mut self.host, s.client) {
                self.host.close(s.upstream);
                s.up_closed = true;
                moved += 1;
            }
            if !s.down_closed && s.down.is_empty() && side_closed(&mut self.host, s.upstream) {
                self.host.close(s.client);
                s.down_closed = true;
                moved += 1;
            }
            if moved > 0 {
                s.last_progress_us = now;
            }

            // Stall timeout: an established session with nothing moving
            // for the whole window is pinned to a backend that will
            // never answer (a wedged board's TCP stack accepts and then
            // goes silent). Tear it down on both sides and dead-mark the
            // backend so new routings steer clear.
            if let Some(gap) = self.stall_timeout_us {
                if !(s.up_closed && s.down_closed)
                    && now.saturating_sub(s.last_progress_us) >= gap
                {
                    self.host.abort(s.upstream);
                    self.host.abort(s.client);
                    let b = &mut self.backends[s.backend];
                    b.stats.inflight -= 1;
                    b.stats.stalls += 1;
                    self.counters.stalls.inc();
                    if !b.stats.dead {
                        b.stats.dead = true;
                        self.counters.dead_marks.inc();
                    }
                    b.dead_since_us = now;
                    finished.push(si);
                    continue;
                }
            }
            if s.up_closed && s.down_closed {
                let b = &mut self.backends[s.backend];
                b.stats.inflight -= 1;
                b.stats.served += 1;
                self.backend_served[s.backend].inc();
                self.counters.closed.inc();
                finished.push(si);
            }
        }
        for si in finished.into_iter().rev() {
            sessions.remove(si);
        }
        self.sessions = sessions;
    }
}

/// Whether `sock`'s peer has closed and its receive buffer is drained —
/// the moment the FIN should be passed along.
fn side_closed(host: &mut SimHost, sock: SocketId) -> bool {
    host.available(sock) == 0
        && (host.peer_closed(sock)
            || matches!(host.recv(sock, &mut [0u8; 1]), Recv::Closed | Recv::Reset))
}

/// Moves bytes `from` → `to` through `buf`, respecting the sink's send
/// room; the buffer carries what the sink rejected to the next pump.
/// Returns how many bytes moved (drained from the source plus accepted
/// by the sink) — the session's progress measure.
fn shuttle(
    host: &mut SimHost,
    from: SocketId,
    to: SocketId,
    buf: &mut Vec<u8>,
    bytes: &Counter,
) -> usize {
    let mut moved = 0usize;
    let avail = host.available(from);
    if avail > 0 {
        let start = buf.len();
        buf.resize(start + avail, 0);
        match host.recv(from, &mut buf[start..]) {
            Recv::Data(n) => {
                buf.truncate(start + n);
                moved += n;
            }
            _ => buf.truncate(start),
        }
    }
    if !buf.is_empty() && host.established(to) {
        let room = host.send_room(to).min(buf.len());
        if room > 0 {
            let sent = host.send(to, &buf[..room]);
            bytes.add(sent as u64);
            buf.drain(..sent);
            moved += sent;
        }
    }
    moved
}

impl std::fmt::Debug for LoadBalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadBalancer")
            .field("policy", &self.policy)
            .field("backends", &self.backends.len())
            .field("open_sessions", &self.sessions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::LinkParams;

    /// Three hosts: an echo backend, the balancer, a client. Bytes flow
    /// client → LB → backend and back.
    #[test]
    fn proxies_one_echo_session() {
        let world = Rc::new(RefCell::new(World::new(3)));
        let mut backend = SimHost::attach(&world, "backend", Ipv4::new(10, 0, 1, 1));
        let mut lb = LoadBalancer::attach(
            &world,
            "lb",
            Ipv4::new(10, 0, 0, 250),
            80,
            8,
            LbPolicy::RoundRobin,
        );
        let mut client = SimHost::attach(&world, "client", Ipv4::new(10, 0, 2, 1));
        world
            .borrow_mut()
            .link(backend.id(), lb.host().id(), LinkParams::lan_100m());
        world
            .borrow_mut()
            .link(lb.host().id(), client.id(), LinkParams::lan_100m());

        let bl = backend.listen(7, 4).expect("backend listens");
        lb.add_backend(Endpoint::new(backend.ip(), 7));
        let c = client.connect(Endpoint::new(lb.host().ip(), 80));

        let mut server = None;
        let mut echoed = Vec::new();
        let mut sent = false;
        let mut closed = false;
        for _ in 0..400 {
            world.borrow_mut().run_for(100);
            lb.pump();
            if server.is_none() {
                server = backend.accept(bl);
            }
            if let Some(srv) = server {
                let avail = backend.available(srv);
                if avail > 0 {
                    let mut buf = vec![0u8; avail];
                    if let Recv::Data(n) = backend.recv(srv, &mut buf) {
                        backend.send(srv, &buf[..n]);
                    }
                }
                if backend.peer_closed(srv) && backend.available(srv) == 0 {
                    backend.close(srv);
                }
            }
            if client.established(c) && !sent {
                assert_eq!(client.send(c, b"ping"), 4);
                sent = true;
            }
            let avail = client.available(c);
            if avail > 0 {
                let mut buf = vec![0u8; avail];
                if let Recv::Data(n) = client.recv(c, &mut buf) {
                    echoed.extend_from_slice(&buf[..n]);
                }
            }
            if echoed.len() == 4 && !closed {
                client.close(c);
                closed = true;
            }
            if closed && lb.open_sessions() == 0 {
                break;
            }
        }
        assert_eq!(echoed, b"ping");
        assert_eq!(lb.open_sessions(), 0, "session torn down");
        assert_eq!(lb.counters().accepts.get(), 1);
        assert_eq!(lb.counters().closed.get(), 1);
        assert_eq!(lb.backend_stats()[0].served, 1);
    }

    /// Least-open routing skips a backend whose link eats every packet:
    /// the first session times out, fails over, and later sessions never
    /// touch the dead backend again.
    #[test]
    fn least_open_skips_dead_backend() {
        let world = Rc::new(RefCell::new(World::new(9)));
        let mut dead = SimHost::attach(&world, "dead", Ipv4::new(10, 0, 1, 1));
        let mut live = SimHost::attach(&world, "live", Ipv4::new(10, 0, 1, 2));
        let mut lb = LoadBalancer::attach(
            &world,
            "lb",
            Ipv4::new(10, 0, 0, 250),
            80,
            8,
            LbPolicy::LeastOpen,
        );
        let mut client = SimHost::attach(&world, "client", Ipv4::new(10, 0, 2, 1));
        world.borrow_mut().link(
            dead.id(),
            lb.host().id(),
            LinkParams::lan_100m().with_drop_rate(1.0),
        );
        world
            .borrow_mut()
            .link(live.id(), lb.host().id(), LinkParams::lan_100m());
        world
            .borrow_mut()
            .link(lb.host().id(), client.id(), LinkParams::lan_100m());

        let _dl = dead.listen(7, 4).expect("dead listens");
        let ll = live.listen(7, 4).expect("live listens");
        lb.add_backend(Endpoint::new(dead.ip(), 7));
        lb.add_backend(Endpoint::new(live.ip(), 7));

        let c0 = client.connect(Endpoint::new(lb.host().ip(), 80));
        let mut accepted = Vec::new();
        for _ in 0..300 {
            world.borrow_mut().run_for(100);
            lb.pump();
            if let Some(s) = live.accept(ll) {
                accepted.push(s);
            }
            if !accepted.is_empty() && client.established(c0) {
                break;
            }
        }
        assert_eq!(accepted.len(), 1, "failed over to the live backend");
        let stats = lb.backend_stats();
        assert_eq!(stats[0].failures, 1);
        assert!(stats[0].dead);
        assert_eq!(lb.counters().failovers.get(), 1);

        // A second client goes straight to the live backend.
        let _c1 = client.connect(Endpoint::new(lb.host().ip(), 80));
        for _ in 0..300 {
            world.borrow_mut().run_for(100);
            lb.pump();
            if let Some(s) = live.accept(ll) {
                accepted.push(s);
            }
            if accepted.len() == 2 {
                break;
            }
        }
        assert_eq!(accepted.len(), 2);
        assert_eq!(lb.backend_stats()[0].failures, 1, "dead backend untried");
    }
}
