//! `serve_warm`: an in-process `tdo-server` daemon with a pre-warmed LRU,
//! driven by an open-loop, seeded Poisson schedule.
//!
//! The generator runs on one thread and multiplexes non-blocking sockets
//! with `ppoll`, keeping at most `nproc` connections in flight. Each
//! request is timed from when it was *due*, so a stall is charged to every
//! request it delays; how late the generator itself ran is reported apart
//! (`gen.late_us_p99`) and a run whose generator fell behind is invalid.
//! The daemon's own counters are read from `/metrics?format=prom` before
//! and after each phase.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd as _;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdo_rand::{Rng, Zipf};
use tdo_server::{Server, ServerConfig, ServerHandle};
use tdo_sim::{Cell, PrefetchSetup, SimConfig, SimResult};
use tdo_workloads::{names, Scale};

use crate::calib::HostRef;
use crate::stats::{median, ratio, tail};
use crate::trace::Tracer;
use crate::{Metrics, Run};

/// Set-up repetitions; `setup_s` is their median. One set-up takes about
/// 0.17 s, and whether its pre-warm request meets the accept loop awake or
/// asleep moves it by up to 20 ms, so the median needs many of them.
const SETUP_REPS: usize = 20;

/// Share of `--seconds` spent at the nominal rate; each ladder rung gets
/// [`RUNG_SHARE`].
const NOMINAL_SHARE: f64 = 0.7;
const RUNG_SHARE: f64 = 0.1;

/// A run is invalid once the generator's p99 lateness in the nominal
/// phase or on any ladder rung it ran exceeds this share of the latency
/// limit. On a shared host the hypervisor can stall the generator's vCPU
/// for several milliseconds; a quarter of the limit still keeps each
/// rung's pass/fail decision the system's own.
const GEN_LATE_SHARE: f64 = 0.25;
/// A request counts in `gen.late_requests` once this late.
const GEN_LATE_US: u64 = 1_000;

/// Give up on a request after this long.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One cell as the `/run` body names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    workload: &'static str,
    arm: &'static str,
    insts: u64,
}

impl Spec {
    fn json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"arm\":\"{}\",\"scale\":\"test\",\"insts\":{}}}",
            self.workload, self.arm, self.insts
        )
    }

    /// The cell the daemon builds for this body.
    fn cell(&self) -> Cell {
        let arm = PrefetchSetup::from_cli_name(self.arm).expect("known arm");
        let mut cfg = SimConfig::test(arm);
        cfg.measure_insts = self.insts;
        Cell::new(self.workload, Scale::Test, cfg)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Single,
    Batch,
    /// A single-cell request whose client dribbles the bytes.
    Slow,
}

struct Req {
    due_us: u64,
    kind: Kind,
    cells: Vec<Spec>,
}

impl Req {
    fn body(&self) -> String {
        match self.kind {
            Kind::Batch => {
                let cells: Vec<String> = self.cells.iter().map(Spec::json).collect();
                format!("{{\"cells\":[{}]}}", cells.join(","))
            }
            _ => self.cells[0].json(),
        }
    }
}

/// What the generator saw of one request; times in µs from phase start.
#[derive(Clone, Debug, Default)]
struct Outcome {
    late_us: u64,
    dispatch_us: u64,
    connect_us: u64,
    write_us: u64,
    first_byte_us: u64,
    done_us: u64,
    status: u16,
    body: String,
}

impl Outcome {
    fn ok(&self) -> bool {
        self.status == 200
    }
}

// ---------------------------------------------------------------- daemon

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    fn start(dir: &Path, cache: usize, seed: u64) -> io::Result<Daemon> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_cap: 64,
            store_dir: Some(dir.display().to_string()),
            no_store: false,
            trace_seed: seed,
            slo_us: 0,
            flight_dir: None,
            shards: 1,
            cache,
        };
        let server = Server::bind(&cfg)?;
        let addr = server.local_addr()?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || server.run())?;
        Ok(Daemon { addr, handle, thread })
    }

    fn stop(self) -> io::Result<()> {
        self.handle.shutdown();
        self.thread.join().map_err(|_| io::Error::other("daemon thread panicked"))?
    }

    fn addr(&self) -> String {
        self.addr.to_string()
    }
}

// ------------------------------------------------------------ prometheus

/// One `/metrics?format=prom` scrape: series (name plus labels) → value.
struct Prom(HashMap<String, f64>);

fn scrape(d: &Daemon, scrape_us: &mut Vec<f64>) -> io::Result<Prom> {
    let t0 = Instant::now();
    let resp = tdo_server::client::get(&d.addr(), "/metrics?format=prom")?;
    scrape_us.push(t0.elapsed().as_secs_f64() * 1e6);
    if !resp.ok() {
        return Err(io::Error::other(format!("metrics scrape answered {}", resp.status)));
    }
    let mut map = HashMap::new();
    for line in resp.body.lines().filter(|l| !l.starts_with('#')) {
        // Drop an exemplar (` # {trace_id=..} v`) before splitting off the value.
        let sample = line.split(" # ").next().unwrap_or(line);
        if let Some((series, v)) = sample.rsplit_once(' ') {
            if let Ok(v) = v.parse::<f64>() {
                map.insert(series.to_string(), v);
            }
        }
    }
    Ok(Prom(map))
}

/// Differences between two scrapes.
struct Delta<'a>(&'a Prom, &'a Prom);

impl Delta<'_> {
    fn get(&self, series: &str) -> f64 {
        let v = |p: &Prom| p.0.get(series).copied().unwrap_or(0.0);
        v(self.1) - v(self.0)
    }

    /// Per-bucket counts of a histogram's `_bucket` series matching
    /// `filter`, in the daemon's bucket layout.
    fn buckets(&self, family: &str, filter: &str) -> [u64; tdo_metrics::TOTAL_BUCKETS] {
        let mut cum: Vec<(f64, f64)> = Vec::new();
        let prefix = format!("{family}_bucket{{");
        for series in self.1 .0.keys() {
            let Some(labels) = series.strip_prefix(&prefix) else { continue };
            if !labels.contains(filter) {
                continue;
            }
            let Some(le) = labels.split("le=\"").nth(1).and_then(|s| s.split('"').next()) else {
                continue;
            };
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::NAN) };
            cum.push((le, self.get(series)));
        }
        cum.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut out = [0u64; tdo_metrics::TOTAL_BUCKETS];
        let mut prev = 0.0;
        for (i, (_, c)) in cum.iter().enumerate().take(out.len()) {
            out[i] = (c - prev).max(0.0) as u64;
            prev = *c;
        }
        out
    }

    fn quantile(&self, family: &str, filter: &str, q_milli: u64) -> f64 {
        tdo_metrics::quantile_from_buckets(&self.buckets(family, filter), q_milli) as f64
    }
}

const RUN_LATENCY: &str = "tdo_server_request_latency_us";
const RUN_FILTER: &str = "endpoint=\"run\"";

// ------------------------------------------------------------- generator

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Waits until a socket is ready or `timeout_us` passes.
fn wait(fds: &mut [PollFd], timeout_us: u64) {
    let ts = Timespec {
        tv_sec: (timeout_us / 1_000_000) as i64,
        tv_nsec: ((timeout_us % 1_000_000) * 1_000) as i64,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // pollfd records and `ts` lives across the call; a null sigmask keeps
    // the thread's signal mask.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// A connection in flight: the request's bytes, released chunk by chunk
/// at their times, and what has come back.
struct Conn {
    idx: usize,
    stream: TcpStream,
    chunks: Vec<(u64, Vec<u8>)>,
    chunk: usize,
    off: usize,
    blocked: bool,
    buf: Vec<u8>,
}

/// Pause between the dribbled pieces of a slow client's request.
const DRIBBLE_US: u64 = 2_000;

fn open(
    addr: SocketAddr,
    idx: usize,
    req: &Req,
    out: &mut Outcome,
    t0: Instant,
) -> io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    out.connect_us = us_since(t0);
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    let body = req.body();
    let head = format!(
        "POST /run HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let at = out.connect_us;
    let chunks = if req.kind == Kind::Slow {
        let (a, b) = body.as_bytes().split_at(body.len() / 2);
        vec![
            (at, head.into_bytes()),
            (at + DRIBBLE_US, a.to_vec()),
            (at + 2 * DRIBBLE_US, b.to_vec()),
        ]
    } else {
        vec![(at, format!("{head}{body}").into_bytes())]
    };
    Ok(Conn { idx, stream, chunks, chunk: 0, off: 0, blocked: false, buf: Vec::new() })
}

fn us_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Advances one connection; `Ok(true)` once the response is complete.
fn progress(c: &mut Conn, out: &mut Outcome, t0: Instant) -> io::Result<bool> {
    c.blocked = false;
    while c.chunk < c.chunks.len() && c.chunks[c.chunk].0 <= us_since(t0) {
        let bytes = &c.chunks[c.chunk].1;
        match c.stream.write(&bytes[c.off..]) {
            Ok(n) => {
                c.off += n;
                if c.off == bytes.len() {
                    c.chunk += 1;
                    c.off = 0;
                    if c.chunk == c.chunks.len() {
                        out.write_us = us_since(t0);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                c.blocked = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let mut tmp = [0u8; 8192];
    loop {
        match c.stream.read(&mut tmp) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                if c.buf.is_empty() {
                    out.first_byte_us = us_since(t0);
                }
                c.buf.extend_from_slice(&tmp[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) => return Err(e),
        }
    }
}

fn finish(c: &Conn, out: &mut Outcome, t0: Instant) {
    out.done_us = us_since(t0);
    let text = String::from_utf8_lossy(&c.buf);
    out.status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    out.body = text.split_once("\r\n\r\n").map_or_else(String::new, |(_, b)| b.to_string());
}

/// Plays `plan` open-loop against `addr` with at most `cap` connections in
/// flight; requests that come due while every slot is busy wait in order.
fn drive(addr: SocketAddr, plan: &[Req], cap: usize, tr: &Tracer, trace_base: u64) -> Vec<Outcome> {
    let mut outs = vec![Outcome::default(); plan.len()];
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut conns: Vec<Conn> = Vec::with_capacity(cap);
    let mut next = 0usize;
    let t0 = Instant::now();
    loop {
        let now = us_since(t0);
        while next < plan.len() && plan[next].due_us <= now {
            outs[next].late_us = now - plan[next].due_us;
            waiting.push_back(next);
            next += 1;
        }
        while conns.len() < cap {
            let Some(i) = waiting.pop_front() else { break };
            outs[i].dispatch_us = us_since(t0);
            match open(addr, i, &plan[i], &mut outs[i], t0) {
                Ok(c) => conns.push(c),
                Err(_) => outs[i].done_us = us_since(t0),
            }
        }
        let mut k = 0;
        while k < conns.len() {
            let i = conns[k].idx;
            let finished = match progress(&mut conns[k], &mut outs[i], t0) {
                Ok(true) => true,
                Ok(false) => {
                    Duration::from_micros(us_since(t0) - outs[i].dispatch_us) > REQUEST_TIMEOUT
                }
                Err(_) => true,
            };
            if finished {
                let c = conns.swap_remove(k);
                finish(&c, &mut outs[i], t0);
            } else {
                k += 1;
            }
        }
        if next == plan.len() && waiting.is_empty() && conns.is_empty() {
            break;
        }
        if !waiting.is_empty() && conns.len() < cap {
            continue;
        }
        let now = us_since(t0);
        let mut until = now + 50_000;
        if let Some(r) = plan.get(next) {
            until = until.min(r.due_us);
        }
        let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
        for c in &conns {
            let mut events = POLLIN;
            if let Some((at, _)) = c.chunks.get(c.chunk) {
                if c.blocked {
                    events |= POLLOUT;
                } else {
                    until = until.min(*at);
                }
            }
            fds.push(PollFd { fd: c.stream.as_raw_fd(), events, revents: 0 });
        }
        if until > now {
            wait(&mut fds, until - now);
        }
    }
    if tr.on() {
        let at = |us: u64| t0 + Duration::from_micros(us);
        for (i, (r, o)) in plan.iter().zip(&outs).enumerate() {
            let trace = trace_base + i as u64;
            let root = tr.record("request", trace, 0, at(r.due_us), at(o.done_us));
            tr.record("gen.slot_wait", trace, root, at(r.due_us), at(o.dispatch_us));
            if o.connect_us > 0 {
                tr.record("client.connect", trace, root, at(o.dispatch_us), at(o.connect_us));
            }
            if o.write_us > 0 {
                tr.record("client.write", trace, root, at(o.connect_us), at(o.write_us));
                if o.first_byte_us > 0 {
                    tr.record(
                        "client.first_byte",
                        trace,
                        root,
                        at(o.write_us),
                        at(o.first_byte_us),
                    );
                    tr.record("client.read", trace, root, at(o.first_byte_us), at(o.done_us));
                }
            }
        }
    }
    outs
}

/// A seeded Poisson schedule at `rate` per second over `secs`; `pick`
/// chooses each request's kind and cells.
fn schedule(
    rng: &mut Rng,
    rate: f64,
    secs: f64,
    mut pick: impl FnMut(&mut Rng) -> (Kind, Vec<Spec>),
) -> Vec<Req> {
    let mut plan = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.gen_f64()).ln() / rate;
        if t >= secs {
            return plan;
        }
        let (kind, cells) = pick(rng);
        plan.push(Req { due_us: (t * 1e6) as u64, kind, cells });
    }
}

// --------------------------------------------------------------- results

/// The fields of every flat JSON object in `body`, as raw strings.
fn objects(body: &str) -> Vec<Vec<(String, String)>> {
    let inner = body.strip_prefix("{\"results\":[").unwrap_or(body);
    inner
        .split('{')
        .filter_map(|obj| {
            let obj = obj.split('}').next()?;
            let pairs: Vec<(String, String)> = obj
                .split(',')
                .filter_map(|kv| {
                    let (k, v) = kv.split_once(':')?;
                    Some((
                        k.trim().trim_matches('"').to_string(),
                        v.trim().trim_matches('"').to_string(),
                    ))
                })
                .collect();
            (!pairs.is_empty()).then_some(pairs)
        })
        .collect()
}

/// The response fields a direct simulation of `spec` must reproduce,
/// sorted by name.
fn expected(spec: &Spec, r: &SimResult) -> Vec<(String, String)> {
    let f = |k: &str, v: u64| (k.to_string(), v.to_string());
    let mut fields = vec![
        ("workload".into(), spec.workload.into()),
        ("arm".into(), spec.arm.into()),
        ("scale".into(), "test".into()),
        f("cycles", r.cycles),
        f("orig_insts", r.orig_insts),
        f("helper_active_cycles", r.helper_active_cycles),
        f("helper_committed", r.helper_committed),
        f("traces_installed", r.trident.traces_installed),
        f("reoptimizations", r.trident.reoptimizations),
        f("backouts", r.trident.backouts),
        f("events_queued", r.trident.events_queued),
        f("events_dropped_saturated", r.trident.events_dropped_saturated),
        f("events_dropped_duplicate", r.trident.events_dropped_duplicate),
        f("insertions", r.optimizer.insertions),
        f("prefetches_inserted", r.optimizer.prefetches_inserted),
        f("repairs", r.optimizer.repairs),
        f("distance_up", r.optimizer.distance_up),
        f("distance_down", r.optimizer.distance_down),
        f("matured", r.optimizer.matured),
        f("sw_prefetch_issued", r.mem.sw_prefetch_issued),
        f("sw_prefetch_redundant", r.mem.sw_prefetch_redundant),
        f("sw_prefetch_dropped", r.mem.sw_prefetch_dropped),
        ("halted".into(), r.halted.to_string()),
    ];
    fields.sort();
    fields
}

/// Every served `(spec, response object)` pair, for the output checks.
type Served = HashMap<Spec, Vec<(String, String)>>;

fn collect(run_: &mut Run, plan: &[Req], outs: &[Outcome], served: &mut Served) {
    for (r, o) in plan.iter().zip(outs) {
        run_.attempted += 1;
        if !o.ok() {
            run_.failed += 1;
            continue;
        }
        let objs = objects(&o.body);
        if objs.len() != r.cells.len() {
            run_.check(
                false,
                format!("response carries {} results for {} cells", objs.len(), r.cells.len()),
            );
            continue;
        }
        for (spec, mut obj) in r.cells.iter().zip(objs) {
            // Whether the answer rode another request's flight is timing,
            // not result.
            obj.retain(|(k, _)| k != "coalesced");
            obj.sort();
            match served.get(spec) {
                Some(prev) if *prev != obj => {
                    run_.check(false, format!("{spec:?} answered two different results"));
                }
                Some(_) => {}
                None => {
                    served.insert(*spec, obj);
                }
            }
        }
    }
}

/// Re-simulates every distinct served cell directly and requires every
/// served field to match.
fn verify(run_: &mut Run, tr: &Tracer, served: &Served) {
    let mut specs: Vec<Spec> = served.keys().copied().collect();
    specs.sort_by_key(|s| (s.workload, s.arm, s.insts));
    for spec in &specs {
        let r = tr.time("cell.simulate", 0, 0, || spec.cell().simulate());
        if expected(spec, &r) != served[spec] {
            run_.check(false, format!("{spec:?}: served result differs from direct simulation"));
        }
    }
    run_.samples.push(("verified_cells", specs.len()));
}

/// Seconds spent repeating the short-cell rate sample.
const RATE_SECS: f64 = 5.0;

/// The direct simulation rate of a fixed sample of this workload's short
/// cells, in measured original instructions per second at the reference
/// host's speed (see [`crate::calib`]). The sample is simulated pass after
/// pass for [`RATE_SECS`], each pass scaled by host-speed samples taken
/// around it, and the median pass counts. The sample does not depend on
/// the seed, so neither does the work measured.
fn short_cell_rate(tr: &Tracer, m: &mut Metrics, sample: &[Spec]) -> f64 {
    let mut host = HostRef::new();
    let mut before = host.sample();
    let mut rates = Vec::new();
    let t0 = Instant::now();
    while rates.is_empty() || t0.elapsed().as_secs_f64() < RATE_SECS {
        let start = Instant::now();
        let mut insts = 0u64;
        for spec in sample {
            insts += tr.time("cell.simulate", 0, 0, || spec.cell().simulate()).orig_insts;
        }
        rates.push(insts as f64 / host.scale(start.elapsed().as_secs_f64(), &mut before));
    }
    m.set("host.speed", host.speed());
    median(&rates)
}

// ---------------------------------------------------------------- phases

/// Everything one timed phase measured.
struct Phase {
    plan: Vec<Req>,
    outs: Vec<Outcome>,
}

impl Phase {
    fn lat(&self, kinds: &[Kind]) -> Vec<f64> {
        self.plan
            .iter()
            .zip(&self.outs)
            .filter(|(r, o)| kinds.contains(&r.kind) && o.ok())
            .map(|(r, o)| (o.done_us - r.due_us) as f64)
            .collect()
    }

    fn ok_outs(&self) -> impl Iterator<Item = &Outcome> {
        self.outs.iter().filter(|o| o.ok())
    }

    /// The generator's own p99 lateness; the run is invalid past
    /// [`GEN_LATE_SHARE`] of `limit_us`.
    fn check_late(&self, run_: &mut Run, what: &str, limit_us: f64) -> f64 {
        let late: Vec<f64> = self.outs.iter().map(|o| o.late_us as f64).collect();
        let p99 = tail(&late);
        let bound = limit_us * GEN_LATE_SHARE;
        run_.check(
            p99 <= bound,
            format!("generator fell behind in {what}: p99 lateness {p99:.0} us > {bound} us"),
        );
        p99
    }
}

const ALL: [Kind; 3] = [Kind::Single, Kind::Batch, Kind::Slow];

/// The nominal rate, well below the ≈100 req/s two connections carry through
/// the accept loop's 20 ms idle sleep.
const NOMINAL_RPS: f64 = 40.0;
/// The fixed ×2 ladder `max_rate_rps` climbs.
const LADDER: [f64; 8] = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0];
/// The tail latency a ladder rung may reach and still pass.
const LIMIT_US: f64 = 50_000.0;

/// Runs the nominal phase and the ladder, filling the end-to-end metrics
/// and (traced) the client/server/generator layer metrics. Returns the
/// scrapes that bracket all timed traffic.
fn measure(
    run_: &mut Run,
    tr: &Tracer,
    m: &mut Metrics,
    d: &Daemon,
    served: &mut Served,
    plan: impl Fn(&mut Rng, f64, f64) -> Vec<Req>,
) -> io::Result<(Prom, Prom)> {
    let cap = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = Rng::new(run_.seed ^ 0x5e7e_b0a7);
    let mut scrape_us = Vec::new();
    let p0 = scrape(d, &mut scrape_us)?;
    let secs = run_.seconds * NOMINAL_SHARE;
    let reqs = plan(&mut rng, NOMINAL_RPS, secs);
    let outs = drive(d.addr, &reqs, cap, tr, 1 << 32);
    let nominal = Phase { plan: reqs, outs };
    let p1 = scrape(d, &mut scrape_us)?;
    collect(run_, &nominal.plan, &nominal.outs, served);

    let singles = nominal.lat(&[Kind::Single]);
    let batches = nominal.lat(&[Kind::Batch]);
    m.set("p50_us", median(&singles));
    m.set("p99_us", tail(&singles));
    m.set("batch_p50_us", median(&batches));
    m.set("batch_p99_us", tail(&batches));
    m.set("gen.late_us_p99", nominal.check_late(run_, "the nominal phase", LIMIT_US));
    m.set(
        "gen.late_requests",
        nominal.outs.iter().filter(|o| o.late_us >= GEN_LATE_US).count() as f64,
    );
    let slot_wait: Vec<f64> = nominal
        .plan
        .iter()
        .zip(&nominal.outs)
        .map(|(r, o)| (o.dispatch_us - r.due_us - o.late_us) as f64)
        .collect();
    m.set("gen.slot_wait_us_p99", tail(&slot_wait));
    let count = |k: Kind| nominal.plan.iter().filter(|r| r.kind == k).count();
    m.set("serve.ok_requests", nominal.ok_outs().count() as f64);
    m.set("serve.single_samples", singles.len() as f64);
    m.set("serve.batch_samples", batches.len() as f64);
    m.set("serve.slow_samples", count(Kind::Slow) as f64);
    run_.samples.push(("single", singles.len()));
    run_.samples.push(("batch", batches.len()));
    run_.samples.push(("slow", count(Kind::Slow)));

    let connect: Vec<f64> =
        nominal.ok_outs().map(|o| (o.connect_us - o.dispatch_us) as f64).collect();
    let ttfb: Vec<f64> = nominal.ok_outs().map(|o| (o.first_byte_us - o.write_us) as f64).collect();
    let all = nominal.lat(&ALL);
    let dn = Delta(&p0, &p1);
    let run_p50 = dn.quantile(RUN_LATENCY, RUN_FILTER, 500);
    let run_p99 = dn.quantile(RUN_LATENCY, RUN_FILTER, 990);
    m.set("client.connect_us_p50", median(&connect));
    m.set("client.ttfb_us_p50", median(&ttfb));
    m.set("client.ttfb_us_p99", tail(&ttfb));
    m.set("server.run_us_p50", run_p50);
    m.set("server.run_us_p99", run_p99);
    m.set("server.self_report_gap", ratio(tail(&all), run_p99));
    m.set("server.accept_wait_us_p50", median(&ttfb) - run_p50);
    let hits = dn.get("tdo_server_cache_hits_total{cache=\"hot_result\"}");
    let misses = dn.get("tdo_server_cache_misses_total{cache=\"hot_result\"}");
    m.set("server.cache_hit_ratio", ratio(hits, hits + misses));
    m.set("server.shed", dn.get("tdo_server_shed_total"));
    m.set(
        "server.batch_cells_per_request",
        ratio(dn.get("tdo_server_batch_cells_total"), dn.get("tdo_server_batch_requests_total")),
    );
    m.set("server.health_ticks_per_s", dn.get("tdo_server_uptime_ticks") / secs);
    let run_requests = dn.get("tdo_server_endpoint_requests_total{endpoint=\"run\"}");
    m.set(
        "obs.flight_records_per_request",
        ratio(dn.get("tdo_obs_flight_recorded_total"), run_requests),
    );
    m.set(
        "server.queue_depth_max",
        queue_depth_max(d, p0.0.get("tdo_server_uptime_ticks").copied().unwrap_or(0.0))?,
    );

    // The ladder: the highest rung whose tail stays within the limit with
    // no growing backlog. Every rung run (the passed ones and the first
    // failing one) must have had a generator that kept to its schedule.
    let mut max_rate = 0.0;
    let mut rungs = 0;
    let mut ladder_late = 0.0f64;
    let mut goodput = 0.0;
    for (k, &rate) in LADDER.iter().enumerate() {
        let secs = run_.seconds * RUNG_SHARE;
        let reqs = plan(&mut rng, rate, secs);
        let outs = drive(d.addr, &reqs, cap, tr, (k as u64 + 2) << 32);
        let rung = Phase { plan: reqs, outs };
        collect(run_, &rung.plan, &rung.outs, served);
        let lat = rung.lat(&ALL);
        let all_ok = lat.len() == rung.plan.len();
        // Requests still outstanding when the schedule ends: a few in a
        // stable system, a share growing with the overload otherwise.
        let backlog = rung.outs.iter().filter(|o| o.done_us as f64 > secs * 1e6).count();
        let steady = backlog <= (4 * cap).max(rung.plan.len() / 4);
        let p = tail(&lat);
        let late = rung.check_late(run_, &format!("the {rate}/s rung"), LIMIT_US);
        ladder_late = ladder_late.max(late);
        // Answers per second until the last one: the offered rate on a
        // rung the daemon keeps up with, its capacity on one it does not.
        let last_us = rung.ok_outs().map(|o| o.done_us).max().unwrap_or(0);
        goodput = ratio(rung.ok_outs().count() as f64, last_us as f64 * 1e-6);
        eprintln!(
            "perfbench: rung {rate}/s: {} requests, tail {p:.0} us, backlog {backlog}, \
             late p99 {late:.0} us, goodput {goodput:.1}/s",
            lat.len()
        );
        if !(all_ok && steady && p <= LIMIT_US) {
            break;
        }
        max_rate = rate;
        rungs += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    m.set("max_rate_rps", max_rate);
    m.set("serve.ladder_rungs_passed", f64::from(rungs));
    m.set("gen.ladder_late_us_p99", ladder_late);
    m.set("serve.last_rung_goodput_rps", goodput);
    let p2 = scrape(d, &mut scrape_us)?;
    m.set("metrics.scrape_us", median(&scrape_us));
    Ok((p0, p2))
}

/// Highest run-queue depth the health history sampled from tick `from`
/// on (the history samples at health ticks and history scrapes only).
fn queue_depth_max(d: &Daemon, from: f64) -> io::Result<f64> {
    let resp = tdo_server::client::get(&d.addr(), "/metrics/history?window=0")?;
    let mut lines = resp.body.lines();
    let header = lines.next().unwrap_or("");
    let columns =
        header.split("\"columns\":[").nth(1).and_then(|s| s.split(']').next()).unwrap_or("");
    let Some(col) =
        columns.split(',').position(|c| c.trim_matches('"') == "tdo_server_queue_depth")
    else {
        return Ok(0.0);
    };
    Ok(lines
        .filter_map(|row| {
            let tick: f64 = row.split("\"tick\":").nth(1)?.split(',').next()?.parse().ok()?;
            if tick < from {
                return None;
            }
            let values = row.split("\"values\":[").nth(1)?.split(']').next()?;
            values.split(',').nth(col)?.parse::<f64>().ok()
        })
        .fold(0.0, f64::max))
}

/// Starts `SETUP_REPS` daemons, each pre-warmed with `universe` in one
/// batch request, keeping the last; returns it with the median set-up time
/// at the reference host's speed (most of a set-up is simulating the
/// universe).
fn set_up(run_: &Run, tr: &Tracer, universe: &[Spec]) -> io::Result<(Daemon, f64)> {
    let prewarm = Req { due_us: 0, kind: Kind::Batch, cells: universe.to_vec() }.body();
    let mut host = HostRef::new();
    let mut before = host.sample();
    let mut times = Vec::new();
    let mut last: Option<Daemon> = None;
    for rep in 0..SETUP_REPS {
        let dir = run_.work.join(format!("store-{rep}"));
        let t0 = Instant::now();
        let d = Daemon::start(&dir, 256, run_.seed)?;
        let resp = tdo_server::client::post(&d.addr(), "/run", &prewarm)?;
        let t1 = Instant::now();
        tr.record("setup", 0, 0, t0, t1);
        times.push(host.scale((t1 - t0).as_secs_f64(), &mut before));
        if !resp.ok() {
            return Err(io::Error::other(format!("pre-warm answered {}", resp.status)));
        }
        if let Some(prev) = last.replace(d) {
            prev.stop()?;
        }
    }
    Ok((last.expect("at least one rep"), median(&times)))
}

fn fail(run_: &mut Run, e: io::Error) {
    run_.check(false, format!("serving harness: {e}"));
}

// ------------------------------------------------------------ serve_warm

/// loadgen's hot universe: every suite workload under four arms, rank
/// ordered so zipf rank 0 is the hottest cell.
fn hot_universe() -> Vec<Spec> {
    let mut out = Vec::new();
    for &workload in names() {
        for arm in ["sr", "nl", "delta", "hw8x8"] {
            out.push(Spec { workload, arm, insts: 2_000 });
        }
    }
    out
}

pub fn run_warm(run_: &mut Run, tr: &Tracer, m: &mut Metrics) {
    if let Err(e) = warm(run_, tr, m) {
        fail(run_, e);
    }
}

fn warm(run_: &mut Run, tr: &Tracer, m: &mut Metrics) -> io::Result<()> {
    let universe = hot_universe();
    let (d, setup_s) = set_up(run_, tr, &universe)?;
    m.set("setup_s", setup_s);
    // The peak from here on is the daemon's and the generator's, not the
    // host-speed reference's that set-up used.
    crate::reset_peak_rss();
    let zipf = Zipf::new(universe.len(), 1.1);
    let mut served = Served::new();
    let (p0, p1) = measure(run_, tr, m, &d, &mut served, |rng, rate, secs| {
        schedule(rng, rate, secs, |rng| {
            let roll = rng.gen_range(0..100);
            let cell = |rng: &mut Rng| universe[zipf.sample(rng)];
            match roll {
                0..=29 => (Kind::Batch, (0..4).map(|_| cell(rng)).collect()),
                30..=34 => (Kind::Slow, vec![cell(rng)]),
                _ => (Kind::Single, vec![cell(rng)]),
            }
        })
    })?;
    d.stop()?;
    let dn = Delta(&p0, &p1);
    let sims = dn.get("tdo_sim_sims_total");
    let reads = dn.get("tdo_store_hits_total") + dn.get("tdo_store_misses_total");
    run_.check(
        sims == 0.0,
        format!("serve_warm simulated {sims} cells; every request must hit the LRU"),
    );
    run_.check(reads == 0.0, format!("serve_warm read the store {reads} times"));
    verify(run_, tr, &served);
    m.set("peak_rss_mb", crate::peak_rss_mb());
    let rate = short_cell_rate(tr, m, &universe);
    m.set("sim_insts_per_s", rate);
    Ok(())
}
