//! The load generator: closed loops (one thread per connection, each
//! keeping `depth` requests in flight), the open-loop pacer with its
//! seeded schedule, and the `cold_start` process cycle. Every reply is
//! held against the oracle's expected answer.

use crate::config::{Class, COLD_SEQUENCE, LATENCY_LIMIT_US};
use crate::oracle::{parse_reply, verify};
use crate::requests::Request;
use crate::server::{ExtraFlags, Server};
use crate::trace::{request_id, Span, Tracer};
use frappe_harness::rng::stream;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What one connection saw.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correct reply: its class, its latency in ns, and when it
    /// arrived.
    pub samples: Vec<(Class, u64, Instant)>,
    pub attempted: u64,
    pub failed: u64,
    /// Correct replies that arrived within [`LATENCY_LIMIT_US`].
    pub within_limit: u64,
    pub first_failure: Option<String>,
    /// The connection ended before the loop did (EOF or a socket error).
    pub server_gone: bool,
    pub spans: Vec<Span>,
}

impl Outcome {
    fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why.into());
        }
    }

    /// Folds another connection's outcome into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within_limit += other.within_limit;
        self.server_gone |= other.server_gone;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.spans.extend(other.spans);
    }

    fn correct(
        &mut self,
        tracer: &Tracer,
        conn: u32,
        seq: u64,
        class: Class,
        from: Instant,
        to: Instant,
    ) {
        let ns = u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX);
        self.samples.push((class, ns, to));
        if ns <= LATENCY_LIMIT_US * 1_000 {
            self.within_limit += 1;
        }
        if tracer.enabled() {
            self.spans.push(Span {
                name: class.name().to_owned(),
                layer: "wire",
                start_ns: tracer.ns_of(from),
                end_ns: tracer.ns_of(to),
                parent: None,
                id: request_id(conn, seq),
                tid: conn + 1,
            });
        }
    }
}

/// When a closed loop stops sending.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    /// After this many requests (the untimed warm-up).
    Count(usize),
}

/// The reading half of a connection: complete lines, tolerant of read
/// timeouts in the middle of one.
struct Lines {
    reader: BufReader<TcpStream>,
    line: String,
}

impl Lines {
    fn set_timeout(&self, timeout: Duration) {
        let _ = self
            .reader
            .get_ref()
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
    }

    /// Blocks for the next complete line; `Ok(None)` on EOF. A read timeout
    /// surfaces as `WouldBlock`/`TimedOut` with the partial line kept for
    /// the next call.
    fn recv(&mut self) -> std::io::Result<Option<&str>> {
        if self.line.ends_with('\n') {
            self.line.clear();
        }
        match self.reader.read_line(&mut self.line)? {
            0 => Ok(None),
            _ if self.line.ends_with('\n') => Ok(Some(self.line.trim_end())),
            _ => Ok(None), // EOF in the middle of a line
        }
    }
}

struct Conn {
    lines: Lines,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            lines: Lines {
                reader: BufReader::with_capacity(64 * 1024, writer.try_clone()?),
                line: String::new(),
            },
            writer,
            out: Vec::new(),
        })
    }

    fn send(&mut self, text: &str) -> std::io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(text.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A closed loop on one connection: walk `pool` cyclically from `start_at`,
/// keep `depth` requests in flight, check every reply. After the deadline
/// nothing more is sent and outstanding replies get `drain` to arrive.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    conn_id: u32,
    pool: &[Request],
    start_at: usize,
    depth: usize,
    until: Until,
    drain: Duration,
    tracer: &Tracer,
) -> Outcome {
    let mut o = Outcome::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            o.server_gone = true;
            o.attempted = 1;
            o.fail(format!("connect: {e}"));
            return o;
        }
    };
    let hang_guard = match until {
        Until::Deadline(d) => d.saturating_duration_since(Instant::now()) + drain,
        Until::Count(_) => Duration::from_secs(120),
    };
    conn.lines.set_timeout(hang_guard);

    let mut inflight: Vec<(u64, usize, Instant)> = Vec::with_capacity(depth);
    let mut next = start_at % pool.len();
    let mut seq = 0u64;
    let mut draining = false;
    loop {
        while !draining && inflight.len() < depth {
            let more = match until {
                Until::Deadline(d) => Instant::now() < d,
                Until::Count(n) => (seq as usize) < n,
            };
            if !more {
                draining = true;
                break;
            }
            let sent = Instant::now();
            if let Err(e) = conn.send(&pool[next].text) {
                o.server_gone = true;
                o.attempted += 1;
                o.fail(format!("send: {e}"));
                draining = true;
                break;
            }
            o.attempted += 1;
            inflight.push((seq, next, sent));
            seq += 1;
            next = (next + 1) % pool.len();
        }
        if inflight.is_empty() {
            break;
        }
        if draining {
            if let Until::Deadline(d) = until {
                conn.lines
                    .set_timeout((d + drain).saturating_duration_since(Instant::now()));
            }
        }
        let line = match conn.lines.recv() {
            Ok(Some(line)) => line,
            Ok(None) => {
                o.server_gone = true;
                break;
            }
            Err(e) if is_timeout(&e) => break, // drain (or hang guard) expired
            Err(_) => {
                o.server_gone = true;
                break;
            }
        };
        let arrived = Instant::now();
        let reply = match parse_reply(line) {
            Ok(r) => r,
            Err(e) => {
                // Not a reply: the stream can no longer be matched to
                // requests, so everything outstanding fails.
                let why = format!("unparsable reply: {e}");
                o.fail(why);
                inflight.pop();
                break;
            }
        };
        let Some(at) = reply
            .seq
            .and_then(|s| inflight.iter().position(|(q, _, _)| *q == s))
        else {
            o.fail(format!("reply with unknown seq {:?}", reply.seq));
            inflight.pop();
            break;
        };
        let (s, idx, sent) = inflight.swap_remove(at);
        match verify(&reply.outcome, &pool[idx].expected) {
            Ok(()) => o.correct(tracer, conn_id, s, pool[idx].class, sent, arrived),
            Err(why) => o.fail(format!("{}: {why}", pool[idx].class.name())),
        }
    }
    for _ in inflight {
        o.fail("no reply before the drain timeout");
    }
    o
}

/// Runs one closed loop per connection over a shared pool, each starting a
/// `1/conns` share into it, and merges what they saw.
pub fn closed_loops(
    addr: SocketAddr,
    pool: &[Request],
    conns: usize,
    depth: usize,
    until: Until,
    drain: Duration,
    tracer: &Tracer,
) -> Outcome {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let until = match until {
                    // The warm-up splits the pool between the connections.
                    Until::Count(n) => Until::Count(n.div_ceil(conns)),
                    d => d,
                };
                scope.spawn(move || {
                    closed_loop(
                        addr,
                        c as u32,
                        pool,
                        c * pool.len() / conns,
                        depth,
                        until,
                        drain,
                        tracer,
                    )
                })
            })
            .collect();
        let mut all = Outcome::default();
        for h in handles {
            all.absorb(h.join().expect("connection thread panicked"));
        }
        all
    })
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

/// One scheduled request: due `due_ns` after the window opens, on
/// connection `conn`, drawn from the lookup or the heavy pool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scheduled {
    pub due_ns: u64,
    pub conn: usize,
    pub heavy: bool,
    pub pool_idx: usize,
}

/// Heavy requests of similar cost, two by two: the pool's indices sorted by
/// class and reference steps, in consecutive pairs (a last odd one pairs
/// with itself).
pub fn similar_pairs(heavy: &[Request]) -> Vec<(usize, usize)> {
    let mut order: Vec<usize> = (0..heavy.len()).collect();
    order.sort_by_key(|&i| (heavy[i].class, heavy[i].expected.steps, i));
    order
        .chunks(2)
        .map(|pair| (pair[0], *pair.last().expect("chunks are never empty")))
        .collect()
}

/// The seeded open-loop schedule: two superposed fixed-rate streams. The
/// lookup stream sends one request per tick, alternating connections, walking
/// the lookup pool from a seeded offset. The heavy stream sends one *pair* of
/// similar-cost requests per tick, one on each of the first two connections
/// (`heavy_qps` counts requests, so it ticks at half that rate), walking
/// `heavy_pairs` in seeded order: each tick occupies both workers for about
/// the same time, so the wait an interactive lookup sees is sampled on every
/// tick instead of on rare coincidences of two independent arrivals.
pub fn schedule(
    seed: u64,
    window: Duration,
    lookup_qps: f64,
    heavy_qps: f64,
    lookup_len: usize,
    heavy_pairs: &[(usize, usize)],
    conns: usize,
) -> Vec<Scheduled> {
    let window_ns = window.as_nanos() as f64;
    let mut rng = stream(seed, 0x0BE7_100B);
    let mut all = Vec::new();
    let ticks = |qps: f64, rng: &mut frappe_harness::rng::Rng| -> Vec<u64> {
        let period = 1e9 / qps;
        let phase = rng.next_f64() * period;
        (0..)
            .map(|i| phase + i as f64 * period)
            .take_while(|due| *due < window_ns)
            .map(|due| due as u64)
            .collect()
    };
    if lookup_qps > 0.0 && lookup_len > 0 {
        let offset = rng.random_range(0..lookup_len);
        for (i, due_ns) in ticks(lookup_qps, &mut rng).into_iter().enumerate() {
            all.push(Scheduled {
                due_ns,
                conn: i % conns,
                heavy: false,
                pool_idx: (offset + i) % lookup_len,
            });
        }
    }
    if heavy_qps > 0.0 && !heavy_pairs.is_empty() {
        let mut pairs = heavy_pairs.to_vec();
        rng.shuffle(&mut pairs);
        for (i, due_ns) in ticks(heavy_qps / 2.0, &mut rng).into_iter().enumerate() {
            let (a, b) = pairs[i % pairs.len()];
            for (conn, pool_idx) in [(0, a), (1 % conns, b)] {
                all.push(Scheduled {
                    due_ns,
                    conn,
                    heavy: true,
                    pool_idx,
                });
            }
        }
    }
    all.sort_by_key(|s| (s.due_ns, s.heavy));
    all
}

/// The pacer's time source, so its accounting can be tested on a virtual
/// clock without sleeping.
pub trait PaceClock {
    fn now_ns(&mut self) -> u64;
    fn sleep_until(&mut self, ns: u64);
}

/// Monotonic time since the window opened.
pub struct WindowClock(pub Instant);

impl PaceClock for WindowClock {
    fn now_ns(&mut self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
    fn sleep_until(&mut self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// How the generator kept its schedule.
#[derive(Debug, Default, PartialEq)]
pub struct PaceLog {
    /// Send time minus due time per request, ns.
    pub late_ns: Vec<u64>,
    /// Most requests ever outstanding right after a send.
    pub backlog_max: u64,
}

/// Sends every entry at its due time (never early), recording how late each
/// went out and the deepest backlog. `send` returns the number of requests
/// outstanding after the send, or `None` to stop (connection lost); it is
/// handed the clock so a virtual one can charge the cost of sending.
pub fn pace<C: PaceClock>(
    clock: &mut C,
    schedule: &[Scheduled],
    mut send: impl FnMut(&mut C, &Scheduled) -> Option<u64>,
) -> PaceLog {
    let mut log = PaceLog::default();
    for entry in schedule {
        if clock.now_ns() < entry.due_ns {
            clock.sleep_until(entry.due_ns);
        }
        let now = clock.now_ns();
        let Some(outstanding) = send(clock, entry) else {
            break;
        };
        log.late_ns.push(now.saturating_sub(entry.due_ns));
        log.backlog_max = log.backlog_max.max(outstanding);
    }
    log
}

/// The open-loop window: the calling thread paces the schedule over
/// `conns` connections while one reader thread per connection checks the
/// replies. Latency runs from each request's due time.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    lookups: &[Request],
    heavy: &[Request],
    plan: &[Scheduled],
    conns: usize,
    drain: Duration,
    tracer: &Tracer,
) -> (Outcome, PaceLog) {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..conns {
        match Conn::open(addr) {
            Ok(c) => {
                // Short timeouts only bound how soon a reader notices the
                // end of the window; arrivals wake it at once.
                c.lines.set_timeout(Duration::from_millis(20));
                writers.push(c.writer);
                readers.push(c.lines);
            }
            Err(e) => {
                let mut o = Outcome {
                    server_gone: true,
                    attempted: plan.len() as u64,
                    failed: plan.len() as u64,
                    ..Outcome::default()
                };
                o.first_failure = Some(format!("connect: {e}"));
                return (o, PaceLog::default());
            }
        }
    }
    let request = |s: &Scheduled| -> &Request {
        if s.heavy {
            &heavy[s.pool_idx]
        } else {
            &lookups[s.pool_idx]
        }
    };
    // Each reader knows in advance what its connection will be sent, in
    // order: the connection's k-th line gets server seq k.
    let per_conn: Vec<Vec<&Scheduled>> = (0..conns)
        .map(|c| plan.iter().filter(|s| s.conn == c).collect())
        .collect();
    let sent: Vec<AtomicU64> = (0..conns).map(|_| AtomicU64::new(0)).collect();
    let received = AtomicU64::new(0);
    let pacer_done = AtomicBool::new(false);
    let lost = AtomicBool::new(false);
    let opened = Instant::now();

    std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, mut lines)| {
                let (mine, sent, received, pacer_done, lost) =
                    (&per_conn[c], &sent[c], &received, &pacer_done, &lost);
                scope.spawn(move || {
                    let mut o = Outcome::default();
                    let mut got = 0u64;
                    let mut answered = vec![false; mine.len()];
                    let mut drain_until: Option<Instant> = None;
                    loop {
                        let done = pacer_done.load(Ordering::Acquire);
                        if done && got >= sent.load(Ordering::Acquire) {
                            break;
                        }
                        if done {
                            let until = *drain_until.get_or_insert_with(|| Instant::now() + drain);
                            if Instant::now() > until {
                                break;
                            }
                        }
                        let line = match lines.recv() {
                            Ok(Some(line)) => line,
                            Err(e) if is_timeout(&e) => continue,
                            Ok(None) | Err(_) => {
                                o.server_gone = true;
                                lost.store(true, Ordering::Release);
                                break;
                            }
                        };
                        let arrived = Instant::now();
                        got += 1;
                        received.fetch_add(1, Ordering::Relaxed);
                        let seq = match parse_reply(line) {
                            Ok(reply) => match reply.seq.map(|s| s as usize) {
                                Some(s) if s < mine.len() && !answered[s] => {
                                    answered[s] = true;
                                    let entry = mine[s];
                                    let req = request(entry);
                                    match verify(&reply.outcome, &req.expected) {
                                        Ok(()) => o.correct(
                                            tracer,
                                            c as u32,
                                            s as u64,
                                            req.class,
                                            opened + Duration::from_nanos(entry.due_ns),
                                            arrived,
                                        ),
                                        Err(why) => o.fail(format!("{}: {why}", req.class.name())),
                                    }
                                    continue;
                                }
                                other => format!("reply with unknown seq {other:?}"),
                            },
                            Err(e) => format!("unparsable reply: {e}"),
                        };
                        o.fail(seq);
                    }
                    // Whatever was sent and never correctly matched is
                    // missing; failures above were already counted.
                    let sent_here = sent.load(Ordering::Acquire);
                    o.attempted = sent_here;
                    let unanswered = answered
                        .iter()
                        .take(sent_here as usize)
                        .filter(|a| !**a)
                        .count() as u64;
                    for _ in 0..unanswered {
                        o.fail("no reply before the drain timeout");
                    }
                    o
                })
            })
            .collect();

        let mut clock = WindowClock(opened);
        let mut line = Vec::new();
        let mut total_sent = 0u64;
        let log = pace(&mut clock, plan, |_, entry| {
            if lost.load(Ordering::Acquire) {
                return None;
            }
            line.clear();
            line.extend_from_slice(request(entry).text.as_bytes());
            line.push(b'\n');
            writers[entry.conn].write_all(&line).ok()?;
            sent[entry.conn].fetch_add(1, Ordering::Release);
            total_sent += 1;
            Some(total_sent.saturating_sub(received.load(Ordering::Relaxed)))
        });
        pacer_done.store(true, Ordering::Release);

        let mut all = Outcome::default();
        for h in handles {
            all.absorb(h.join().expect("reader thread panicked"));
        }
        (all, log)
    })
}

// ---------------------------------------------------------------------------
// Cold start
// ---------------------------------------------------------------------------

/// One `cold_start` cycle, as the developer restarting the server sees it.
#[derive(Debug, Default)]
pub struct Cycle {
    /// Spawn → the last first-reply.
    pub latency_ns: u64,
    /// Spawn → addr-file.
    pub ready_ns: u64,
    /// Round trip of each request of [`COLD_SEQUENCE`], in order.
    pub first_ns: [u64; 4],
    pub rss_peak_mb: f64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// Spawns a fresh server on `snapshot`, sends one request per class of
/// [`COLD_SEQUENCE`] on one connection, then `!shutdown`s and reaps it.
pub fn cold_cycle(
    bin: &Path,
    snapshot: &Path,
    workdir: &Path,
    tag: &str,
    extra: ExtraFlags<'_>,
    requests: [&Request; 4],
    tracer: &Tracer,
) -> Result<Cycle, String> {
    let spawned = Instant::now();
    let server = Server::spawn(bin, snapshot, workdir, tag, extra)?;
    let mut cycle = Cycle {
        ready_ns: server.ready.as_nanos() as u64,
        ..Cycle::default()
    };
    let fail = |cycle: &mut Cycle, why: String| {
        cycle.failed += 1;
        cycle.first_failure.get_or_insert(why);
    };
    let parent = tracer.record(Span {
        name: "spawn_to_listening".into(),
        layer: "serve",
        start_ns: tracer.ns_of(spawned),
        end_ns: tracer.ns_of(spawned + server.ready),
        parent: None,
        id: u64::from(server.pid()),
        tid: 0,
    });
    match Conn::open(server.query) {
        Ok(mut conn) => {
            conn.lines.set_timeout(Duration::from_secs(30));
            for (i, req) in requests.iter().enumerate() {
                debug_assert_eq!(req.class, COLD_SEQUENCE[i]);
                let sent = Instant::now();
                let line = match conn.send(&req.text).and_then(|()| conn.lines.recv()) {
                    Ok(Some(line)) => line,
                    Ok(None) => {
                        fail(&mut cycle, "server closed the connection".into());
                        break;
                    }
                    Err(e) => {
                        fail(&mut cycle, format!("{}: {e}", req.class.name()));
                        break;
                    }
                };
                let arrived = Instant::now();
                cycle.first_ns[i] = (arrived - sent).as_nanos() as u64;
                match parse_reply(line).and_then(|r| verify(&r.outcome, &req.expected)) {
                    Ok(()) => {
                        tracer.record(Span {
                            name: format!("first_{}", req.class.name()),
                            layer: "wire",
                            start_ns: tracer.ns_of(sent),
                            end_ns: tracer.ns_of(arrived),
                            parent,
                            id: u64::from(server.pid()),
                            tid: 0,
                        });
                    }
                    Err(why) => fail(&mut cycle, format!("{}: {why}", req.class.name())),
                }
            }
        }
        Err(e) => fail(&mut cycle, format!("connect: {e}")),
    }
    cycle.latency_ns = spawned.elapsed().as_nanos() as u64;
    cycle.rss_peak_mb = server.rss_peak_mb().unwrap_or(0.0);
    if let Err(e) = server.shutdown() {
        fail(&mut cycle, e);
    }
    Ok(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to: sleeping overshoots by a fixed
    /// amount and every send costs a fixed amount.
    struct VirtualClock {
        now: u64,
        overshoot: u64,
    }

    impl PaceClock for VirtualClock {
        fn now_ns(&mut self) -> u64 {
            self.now
        }
        fn sleep_until(&mut self, ns: u64) {
            self.now = self.now.max(ns) + self.overshoot;
        }
    }

    fn entry(due_ns: u64) -> Scheduled {
        Scheduled {
            due_ns,
            conn: 0,
            heavy: false,
            pool_idx: 0,
        }
    }

    #[test]
    fn pacer_never_sends_early_and_accounts_lateness_from_due_time() {
        let plan: Vec<Scheduled> = [0, 100, 200, 1_000].into_iter().map(entry).collect();
        let mut clock = VirtualClock {
            now: 0,
            overshoot: 7,
        };
        // Each send takes 150 ns of the pacer's time; replies never come,
        // so the backlog is the number sent.
        let mut sends = Vec::new();
        let mut n = 0u64;
        let log = pace(&mut clock, &plan, |clock, e| {
            sends.push((e.due_ns, clock.now));
            clock.now += 150;
            n += 1;
            Some(n)
        });
        // due 0: on time. due 100: pacer is busy until 150 → 50 late.
        // due 200: busy until 300 → 100 late. due 1000: sleeps, wakes 7 late.
        assert_eq!(log.late_ns, vec![0, 50, 100, 7]);
        assert_eq!(log.backlog_max, 4);
        assert!(sends.iter().all(|(due, at)| at >= due), "never early");
        assert_eq!(sends[3], (1_000, 1_007));
    }

    #[test]
    fn pacer_stops_when_the_connection_is_lost() {
        let plan: Vec<Scheduled> = (0..10).map(|i| entry(i * 10)).collect();
        let mut clock = VirtualClock {
            now: 0,
            overshoot: 0,
        };
        let mut n = 0u64;
        let log = pace(&mut clock, &plan, |_, _| {
            n += 1;
            (n <= 3).then_some(1)
        });
        assert_eq!(log.late_ns.len(), 3);
        assert_eq!(log.backlog_max, 1);
    }

    #[test]
    fn schedule_is_seeded_fixed_rate_and_pairs_the_heavy_stream() {
        let w = Duration::from_secs(2);
        let pairs: Vec<(usize, usize)> = (0..128).map(|i| (2 * i, 2 * i + 1)).collect();
        let a = schedule(5, w, 1000.0, 40.0, 4096, &pairs, 2);
        assert_eq!(a, schedule(5, w, 1000.0, 40.0, 4096, &pairs, 2));
        assert_ne!(a, schedule(6, w, 1000.0, 40.0, 4096, &pairs, 2));
        let lookups: Vec<&Scheduled> = a.iter().filter(|s| !s.heavy).collect();
        let heavy: Vec<&Scheduled> = a.iter().filter(|s| s.heavy).collect();
        assert!((1999..=2000).contains(&lookups.len()), "{}", lookups.len());
        assert!((78..=80).contains(&heavy.len()), "{}", heavy.len());
        // Fixed spacing within the lookup stream (to the ns rounding of the
        // grid), alternating connections.
        for pair in lookups.windows(2) {
            let gap = pair[1].due_ns - pair[0].due_ns;
            assert!((999_999..=1_000_001).contains(&gap), "{gap}");
            assert_ne!(pair[0].conn, pair[1].conn);
        }
        // Heavy requests leave two at a time, one per connection, and the
        // two are a pair of the given list.
        for tick in heavy.chunks(2) {
            assert_eq!(tick[0].due_ns, tick[1].due_ns);
            assert_eq!((tick[0].conn, tick[1].conn), (0, 1));
            assert!(pairs.contains(&(tick[0].pool_idx, tick[1].pool_idx)));
        }
        assert!(a.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
        assert!(a.iter().all(|s| s.due_ns < 2_000_000_000));
        assert!(lookups.iter().all(|s| s.pool_idx < 4096));
    }

    #[test]
    fn similar_pairs_couple_neighbours_in_cost() {
        use crate::oracle::Expected;
        let req = |class, steps| Request {
            class,
            text: String::new(),
            expected: Expected {
                rows: 0,
                steps,
                hash: 0,
            },
        };
        let pool = vec![
            req(Class::NbrCount, 90_000),
            req(Class::NbrOut, 12_000),
            req(Class::NbrCount, 41_000),
            req(Class::NbrOut, 29_000),
            req(Class::NbrCount, 43_000),
        ];
        // Sorted by (class, steps): nbr_out 12k, 29k; nbr_count 41k, 43k, 90k.
        assert_eq!(similar_pairs(&pool), vec![(1, 3), (2, 4), (0, 0)]);
    }
}
