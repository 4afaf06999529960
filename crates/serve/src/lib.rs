//! Multi-tenant fleet-analysis daemon core.
//!
//! `astra-serve` turns any set of [`SiteSource`] tenants — one per log
//! directory — into a long-running daemon that ingests continuously and
//! answers concurrent HTTP/1.1 read queries from immutable snapshots:
//!
//! * **One ingest thread per site.** Each thread owns its source
//!   exclusively, polls it for newly-arrived records, and periodically
//!   asks it to checkpoint. No lock is ever held while ingesting.
//! * **Snapshot swap.** After folding new events in, the ingest thread
//!   builds a fresh [`SiteSnapshot`] (pre-rendered response bodies
//!   included) and swaps it behind an `Arc`. Readers clone the `Arc`
//!   under a mutex held for nanoseconds, then serialize the response
//!   with no lock at all — reads never block ingest, and ingest can
//!   never tear a response in flight.
//! * **Bounded accept queue.** A non-blocking accept loop feeds a
//!   `sync_channel` drained by a fixed worker pool; when the queue is
//!   full the daemon answers 503 immediately instead of stacking up
//!   unbounded connections.
//! * **Graceful shutdown.** `/shutdown` (or [`Server::trigger_shutdown`])
//!   stops the accept loop, lets workers drain queued requests, runs a
//!   final checkpoint per site, and joins every thread.
//!
//! The crate is analysis-agnostic: it knows nothing about memory errors
//! or analyzers, only that a tenant can `poll`, `checkpoint`, and
//! `snapshot` itself. `astra-core` provides the glue that adapts its
//! stream engine to this trait.

pub mod http;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use astra_obs::escape_json_str as escape_json;

/// One tenant of the daemon. Implementations own all mutable analysis
/// state; the server only ever touches a source from its single ingest
/// thread, so `Send` (not `Sync`) is enough.
pub trait SiteSource: Send {
    /// Stable tenant name (used in URLs: `/site/<name>/...`).
    fn name(&self) -> &str;
    /// Consume every record currently available; return how many were
    /// folded in. `Ok(0)` means "dry for now — poll again later".
    fn poll(&mut self) -> Result<u64, String>;
    /// Persist state so a restart resumes without replaying; returns
    /// whether a checkpoint was actually written (false = not configured).
    fn checkpoint(&mut self) -> Result<bool, String>;
    /// Build an immutable point-in-time snapshot, response bodies included.
    fn snapshot(&self) -> SiteSnapshot;
}

/// A pre-rendered response body for one endpoint of one site.
#[derive(Debug, Clone)]
pub struct View {
    /// URL leaf: `/site/<site>/<name>`.
    pub name: &'static str,
    /// `Content-Type` the body is served with.
    pub content_type: &'static str,
    /// The exact bytes served.
    pub body: String,
}

/// Immutable point-in-time state of one site, swapped whole behind an
/// `Arc` so readers always see a single consistent generation.
#[derive(Debug, Clone, Default)]
pub struct SiteSnapshot {
    /// Events folded into the analysis so far (resumed ones included).
    pub events: u64,
    /// Parsed records consumed per log the site reads (one).
    pub consumed: [u64; 1],
    /// Records quarantined across the logs the site reads.
    pub quarantined: u64,
    /// Log bytes read so far.
    pub bytes_read: u64,
    /// Faults identified by the analysis.
    pub faults: u64,
    /// Prediction alerts raised.
    pub alerts: u64,
    /// Checkpoints written since the daemon started.
    pub checkpoints: u64,
    /// Whether this site resumed from a checkpoint at startup.
    pub resumed: bool,
    /// Pre-rendered endpoint bodies (`analysis`, `spatial`, ...).
    pub views: Vec<View>,
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub listen: String,
    /// How long ingest threads sleep when their logs are dry.
    pub poll_interval: Duration,
    /// Checkpoint cadence per site; `None` checkpoints only at shutdown.
    pub checkpoint_every: Option<Duration>,
    /// Request worker threads.
    pub workers: usize,
    /// Bounded accept queue depth; beyond it, connections get 503.
    pub queue_depth: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            poll_interval: Duration::from_millis(200),
            checkpoint_every: None,
            workers: astra_util::par::worker_count(4),
            queue_depth: 64,
        }
    }
}

/// What readers see: a generation-stamped snapshot. Generation 0 is the
/// synchronous pre-ingest publish at startup; each subsequent publish
/// increments it, so "every site ≥ 1" means "every site has completed at
/// least one full poll of its logs".
struct Published {
    generation: u64,
    snap: SiteSnapshot,
    /// Set when ingest died (strict-mode quarantine, blown lenient
    /// budget, checkpoint I/O error). The last good snapshot stays
    /// readable; `/health` reports `degraded`.
    error: Option<String>,
}

struct SiteSlot {
    name: String,
    published: Mutex<Arc<Published>>,
}

impl SiteSlot {
    /// Clone the current snapshot `Arc` — the only reader-side lock, held
    /// for the duration of a pointer copy.
    fn read(&self) -> Arc<Published> {
        Arc::clone(&self.published.lock().expect("site slot poisoned"))
    }

    fn publish(&self, value: Published) {
        *self.published.lock().expect("site slot poisoned") = Arc::new(value);
    }
}

/// A running daemon: accept loop + worker pool + one ingest thread per
/// site. Create with [`Server::start`], stop with
/// [`Server::trigger_shutdown`] (or HTTP `/shutdown`), then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    sites: Arc<Vec<SiteSlot>>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, publish a generation-0 snapshot of every site synchronously
    /// (so every endpoint answers from the first instant), and spawn the
    /// ingest/accept/worker threads.
    pub fn start(sources: Vec<Box<dyn SiteSource>>, opts: &ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let slots: Vec<SiteSlot> = sources
            .iter()
            .map(|s| SiteSlot {
                name: s.name().to_string(),
                published: Mutex::new(Arc::new(Published {
                    generation: 0,
                    snap: s.snapshot(),
                    error: None,
                })),
            })
            .collect();
        let sites = Arc::new(slots);
        let registry = astra_obs::global();
        registry.gauge("serve.sites").set(sites.len() as f64);

        let mut threads = Vec::new();
        for (i, source) in sources.into_iter().enumerate() {
            let sites = Arc::clone(&sites);
            let shutdown = Arc::clone(&shutdown);
            let poll_interval = opts.poll_interval;
            let checkpoint_every = opts.checkpoint_every;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ingest-{}", source.name()))
                    .spawn(move || {
                        // A panicking tenant must not just vanish: catch
                        // the unwind, mark the site degraded (the last
                        // good snapshot stays readable), and count it —
                        // exactly the Err(poll) path, but for bugs.
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            ingest_loop(
                                source,
                                &sites[i],
                                &shutdown,
                                poll_interval,
                                checkpoint_every,
                            )
                        }));
                        if let Err(payload) = run {
                            astra_obs::global().counter("serve.ingest.errors").inc();
                            let last = sites[i].read();
                            sites[i].publish(Published {
                                generation: last.generation + 1,
                                snap: last.snap.clone(),
                                error: Some(format!(
                                    "ingest thread panicked: {}",
                                    panic_message(payload.as_ref())
                                )),
                            });
                        }
                    })?,
            );
        }

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(opts.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        for w in 0..opts.workers.max(1) {
            let rx = Arc::clone(&rx);
            let sites = Arc::clone(&sites);
            let shutdown = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&rx, &sites, &shutdown))?,
            );
        }
        {
            let shutdown = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".to_string())
                    .spawn(move || accept_loop(listener, tx, &shutdown))?,
            );
        }

        Ok(Server {
            addr,
            shutdown,
            sites,
            threads,
        })
    }

    /// The actually-bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask every thread to wind down: accept stops, queued requests
    /// drain, each site writes a final checkpoint. Idempotent.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// A cloneable handle that can request shutdown from another thread
    /// (e.g. a stdin-EOF watcher) while the `Server` itself is parked in
    /// [`Server::join`].
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger(Arc::clone(&self.shutdown))
    }

    /// Whether shutdown has been requested (by HTTP or by trigger).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Block until every site has completed at least one full poll of its
    /// logs (generation ≥ 1). Returns false on timeout.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.sites.iter().all(|s| s.read().generation >= 1) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Join every thread. Call after [`Server::trigger_shutdown`] (or
    /// after a client hit `/shutdown`), otherwise this blocks forever.
    pub fn join(self) {
        for t in self.threads {
            // A panicked worker already printed its payload; the others
            // still deserve their final checkpoint.
            let _ = t.join();
        }
    }
}

/// A detached handle for requesting shutdown; see
/// [`Server::shutdown_trigger`].
#[derive(Clone)]
pub struct ShutdownTrigger(Arc<AtomicBool>);

impl ShutdownTrigger {
    /// Request shutdown. Idempotent.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Best-effort text of a panic payload (the `&str`/`String` cases the
/// standard panic machinery produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Per-site ingest: poll → publish → maybe checkpoint → sleep, until
/// shutdown; then one final drain-poll, final checkpoint, final publish.
fn ingest_loop(
    mut source: Box<dyn SiteSource>,
    slot: &SiteSlot,
    shutdown: &AtomicBool,
    poll_interval: Duration,
    checkpoint_every: Option<Duration>,
) {
    let registry = astra_obs::global();
    let ingested = registry.counter("serve.ingest.events");
    let checkpoints = registry.counter("serve.checkpoints");
    let mut generation = 0u64;
    let mut last_checkpoint = Instant::now();
    let publish = |source: &dyn SiteSource, generation: u64, error: Option<String>| {
        slot.publish(Published {
            generation,
            snap: source.snapshot(),
            error,
        });
    };

    loop {
        let stopping = shutdown.load(Ordering::SeqCst);
        match source.poll() {
            Ok(n) => {
                ingested.add(n);
                // Always publish the first generation (readiness signal)
                // and any generation that saw new data.
                if n > 0 || generation == 0 {
                    generation += 1;
                    publish(&*source, generation, None);
                }
            }
            Err(e) => {
                // Ingest is dead for this site (e.g. strict-mode
                // quarantine). Keep the last good snapshot readable and
                // surface the error; nothing more to poll.
                registry.counter("serve.ingest.errors").inc();
                generation += 1;
                publish(&*source, generation, Some(e));
                break;
            }
        }
        let due = checkpoint_every.is_some_and(|every| last_checkpoint.elapsed() >= every);
        if stopping || due {
            match source.checkpoint() {
                Ok(true) => {
                    checkpoints.inc();
                    last_checkpoint = Instant::now();
                    generation += 1;
                    publish(&*source, generation, None);
                }
                Ok(false) => last_checkpoint = Instant::now(),
                Err(e) => {
                    registry.counter("serve.ingest.errors").inc();
                    generation += 1;
                    publish(&*source, generation, Some(e));
                    break;
                }
            }
        }
        if stopping {
            break;
        }
        std::thread::sleep(poll_interval);
    }
}

/// Accept loop: non-blocking accept, bounded hand-off to the workers,
/// inline 503 when the queue is full.
fn accept_loop(listener: TcpListener, tx: SyncSender<TcpStream>, shutdown: &AtomicBool) {
    let rejected = astra_obs::global().counter("serve.rejected");
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(mut stream)) => {
                    rejected.inc();
                    let _ = http::write_response(
                        &mut stream,
                        503,
                        "text/plain; charset=utf-8",
                        b"accept queue full\n",
                    );
                }
                Err(TrySendError::Disconnected(_)) => break,
            },
            // The accept poll bounds a fresh connection's queueing
            // latency, so keep it short; 5 ms is ~200 no-op syscalls per
            // idle second on one thread.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Dropping `tx` closes the channel; workers drain what is queued and
    // then exit — the "finish in-flight requests" half of graceful
    // shutdown.
}

/// Worker: pull connections until the channel closes, answer each one.
fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, sites: &[SiteSlot], shutdown: &AtomicBool) {
    let registry = astra_obs::global();
    let requests = registry.counter("serve.requests");
    let request_ns = registry.timing("serve.request");
    loop {
        let stream = match rx.lock().expect("serve queue poisoned").recv() {
            Ok(s) => s,
            Err(_) => return, // accept loop is gone and the queue is drained
        };
        let started = Instant::now();
        requests.inc();
        handle_connection(stream, sites, shutdown);
        request_ns.record(started.elapsed().as_nanos() as u64);
    }
}

fn handle_connection(mut stream: TcpStream, sites: &[SiteSlot], shutdown: &AtomicBool) {
    let (status, content_type, body) = match http::read_request(&mut stream) {
        Ok(req) => route(&req, sites, shutdown),
        Err(reason) => (400, "text/plain; charset=utf-8", format!("{reason}\n")),
    };
    let _ = http::write_response(&mut stream, status, content_type, body.as_bytes());
}

/// Dispatch one request to a response. Every data endpoint reads exactly
/// one published snapshot, so a response can never mix generations.
fn route(
    req: &http::Request,
    sites: &[SiteSlot],
    shutdown: &AtomicBool,
) -> (u16, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    const JSON: &str = "application/json";
    if req.path == "/shutdown" {
        if req.method != "GET" && req.method != "POST" {
            return (405, TEXT, "use GET or POST\n".to_string());
        }
        shutdown.store(true, Ordering::SeqCst);
        return (200, TEXT, "shutting down\n".to_string());
    }
    if req.method != "GET" {
        return (405, TEXT, "only GET is supported\n".to_string());
    }
    match req.path.as_str() {
        "/" | "/health" => (200, JSON, health_body(sites)),
        "/sites" => (200, JSON, sites_body(sites)),
        "/metrics" => (200, TEXT, astra_obs::global().snapshot().to_prometheus()),
        "/metrics.jsonl" => (
            200,
            "application/jsonl",
            astra_obs::global().snapshot().to_jsonl(),
        ),
        path => {
            let Some(rest) = path.strip_prefix("/site/") else {
                return (404, TEXT, format!("no such endpoint {path}\n"));
            };
            let (name, view) = match rest.split_once('/') {
                Some((name, view)) => (name, view),
                None => (rest, "health"),
            };
            let Some(slot) = sites.iter().find(|s| s.name == name) else {
                return (404, TEXT, format!("no such site {name}\n"));
            };
            let published = slot.read();
            if view == "health" {
                return (200, JSON, site_health_body(&slot.name, &published));
            }
            match published.snap.views.iter().find(|v| v.name == view) {
                // `Content-Type` values are &'static on View by design.
                Some(v) => (200, v.content_type, v.body.clone()),
                None => (404, TEXT, format!("site {name} has no view {view}\n")),
            }
        }
    }
}

/// Fleet health: `ok` until some site's ingest died, `ready` once every
/// site has completed its first full poll.
fn health_body(sites: &[SiteSlot]) -> String {
    let published: Vec<Arc<Published>> = sites.iter().map(|s| s.read()).collect();
    let errors = published.iter().filter(|p| p.error.is_some()).count();
    let ready = published.iter().all(|p| p.generation >= 1);
    let status = if errors == 0 { "ok" } else { "degraded" };
    format!(
        "{{\"status\":\"{status}\",\"ready\":{ready},\"sites\":{},\"ingest_errors\":{errors}}}\n",
        sites.len()
    )
}

fn site_summary_json(name: &str, p: &Published) -> String {
    let s = &p.snap;
    let error = match &p.error {
        Some(e) => format!("\"{}\"", escape_json(e)),
        None => "null".to_string(),
    };
    format!(
        "{{\"site\":\"{}\",\"generation\":{},\"events\":{},\"consumed\":[{}],\"quarantined\":{},\"bytes_read\":{},\"faults\":{},\"alerts\":{},\"checkpoints\":{},\"resumed\":{},\"error\":{error}}}",
        escape_json(name),
        p.generation,
        s.events,
        s.consumed.map(|n| n.to_string()).join(","),
        s.quarantined,
        s.bytes_read,
        s.faults,
        s.alerts,
        s.checkpoints,
        s.resumed,
    )
}

fn sites_body(sites: &[SiteSlot]) -> String {
    let mut out = String::from("[");
    for (i, slot) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&site_summary_json(&slot.name, &slot.read()));
    }
    out.push_str("]\n");
    out
}

fn site_health_body(name: &str, p: &Published) -> String {
    let mut out = site_summary_json(name, p);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic in-memory tenant: `budget` polls each yielding
    /// `per_poll` events, then dry.
    struct FakeSite {
        name: String,
        events: u64,
        per_poll: u64,
        budget: u64,
        checkpoints: u64,
        fail_poll: bool,
        /// Panic on the Nth poll (1-based) — the buggy-tenant case.
        panic_on_poll: Option<u64>,
        polls: u64,
    }

    impl FakeSite {
        fn new(name: &str, per_poll: u64, budget: u64) -> FakeSite {
            FakeSite {
                name: name.to_string(),
                events: 0,
                per_poll,
                budget,
                checkpoints: 0,
                fail_poll: false,
                panic_on_poll: None,
                polls: 0,
            }
        }
    }

    impl SiteSource for FakeSite {
        fn name(&self) -> &str {
            &self.name
        }

        fn poll(&mut self) -> Result<u64, String> {
            self.polls += 1;
            if self.panic_on_poll == Some(self.polls) {
                panic!("synthetic tenant bug");
            }
            if self.fail_poll {
                return Err("synthetic ingest failure".to_string());
            }
            if self.budget == 0 {
                return Ok(0);
            }
            self.budget -= 1;
            self.events += self.per_poll;
            Ok(self.per_poll)
        }

        fn checkpoint(&mut self) -> Result<bool, String> {
            self.checkpoints += 1;
            Ok(true)
        }

        fn snapshot(&self) -> SiteSnapshot {
            SiteSnapshot {
                events: self.events,
                consumed: [self.events],
                checkpoints: self.checkpoints,
                views: vec![View {
                    name: "analysis",
                    content_type: "text/plain; charset=utf-8",
                    body: format!("{} events\n", self.events),
                }],
                ..SiteSnapshot::default()
            }
        }
    }

    fn quick_opts() -> ServeOptions {
        ServeOptions {
            poll_interval: Duration::from_millis(5),
            workers: 2,
            queue_depth: 8,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn serves_health_sites_and_views_then_shuts_down() {
        let sources: Vec<Box<dyn SiteSource>> = vec![
            Box::new(FakeSite::new("alpha", 10, 3)),
            Box::new(FakeSite::new("beta", 7, 2)),
        ];
        let server = Server::start(sources, &quick_opts()).unwrap();
        assert!(
            server.wait_ready(Duration::from_secs(5)),
            "sites never became ready"
        );
        let addr = server.addr();

        let health = http::get(addr, "/health").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"ready\":true"), "{}", health.body);
        assert!(health.body.contains("\"sites\":2"), "{}", health.body);

        // Poll until the fake sites drain their budgets.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let view = http::get(addr, "/site/alpha/analysis").unwrap();
            assert_eq!(view.status, 200);
            if view.body == "30 events\n" {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "alpha never drained: {}",
                view.body
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        let summary = http::get(addr, "/site/beta").unwrap();
        assert!(
            summary.body.contains("\"site\":\"beta\""),
            "{}",
            summary.body
        );
        assert!(summary.body.contains("\"events\":14"), "{}", summary.body);

        assert_eq!(http::get(addr, "/site/nope").unwrap().status, 404);
        assert_eq!(http::get(addr, "/site/alpha/nope").unwrap().status, 404);
        assert_eq!(http::get(addr, "/nope").unwrap().status, 404);
        assert_eq!(http::request(addr, "PUT", "/sites").unwrap().status, 405);

        let metrics = http::get(addr, "/metrics").unwrap();
        assert!(
            metrics.body.contains("serve_requests_total"),
            "{}",
            metrics.body
        );

        let bye = http::request(addr, "POST", "/shutdown").unwrap();
        assert_eq!(bye.body, "shutting down\n");
        server.join();
    }

    #[test]
    fn ingest_error_degrades_health_but_keeps_serving() {
        let mut site = FakeSite::new("solo", 5, 1);
        site.fail_poll = false;
        let server = Server::start(vec![Box::new(site)], &quick_opts()).unwrap();
        assert!(server.wait_ready(Duration::from_secs(5)));
        // Flip the published state to an error by hand: simulate what the
        // ingest loop does when poll() fails, without racing the thread.
        server.sites[0].publish(Published {
            generation: 99,
            snap: SiteSnapshot::default(),
            error: Some("synthetic ingest failure".to_string()),
        });
        let health = http::get(server.addr(), "/health").unwrap();
        assert!(
            health.body.contains("\"status\":\"degraded\""),
            "{}",
            health.body
        );
        assert!(
            health.body.contains("\"ingest_errors\":1"),
            "{}",
            health.body
        );
        let summary = http::get(server.addr(), "/site/solo").unwrap();
        assert!(
            summary
                .body
                .contains("\"error\":\"synthetic ingest failure\""),
            "{}",
            summary.body
        );
        server.trigger_shutdown();
        server.join();
    }

    #[test]
    fn ingest_panic_marks_the_site_degraded_instead_of_vanishing() {
        let mut site = FakeSite::new("boomy", 3, 1000);
        // First poll succeeds (readiness, generation 1); the second one
        // hits the tenant bug mid-loop.
        site.panic_on_poll = Some(2);
        let healthy = FakeSite::new("steady", 1, 1000);
        let server = Server::start(vec![Box::new(site), Box::new(healthy)], &quick_opts()).unwrap();
        assert!(server.wait_ready(Duration::from_secs(5)));
        // The unwind is caught by the ingest thread's wrapper, which
        // publishes the error; wait for that to land.
        let deadline = Instant::now() + Duration::from_secs(5);
        let published = loop {
            let p = server.sites[0].read();
            if p.error.is_some() {
                break p;
            }
            assert!(Instant::now() < deadline, "panic was never published");
            std::thread::sleep(Duration::from_millis(10));
        };
        let error = published.error.as_deref().unwrap();
        assert!(
            error.contains("ingest thread panicked") && error.contains("synthetic tenant bug"),
            "{error}"
        );
        // The last good snapshot stays readable...
        assert_eq!(published.snap.events, 3);
        let health = http::get(server.addr(), "/health").unwrap();
        assert!(
            health.body.contains("\"status\":\"degraded\""),
            "{}",
            health.body
        );
        // ...and the healthy tenant keeps serving.
        let ok = http::get(server.addr(), "/site/steady").unwrap();
        assert!(ok.body.contains("\"error\":null"), "{}", ok.body);
        server.trigger_shutdown();
        server.join();
    }

    #[test]
    fn shutdown_runs_a_final_checkpoint_per_site() {
        let server =
            Server::start(vec![Box::new(FakeSite::new("ckpt", 1, 1))], &quick_opts()).unwrap();
        assert!(server.wait_ready(Duration::from_secs(5)));
        server.trigger_shutdown();
        server.join();
        // The final publish happens after the final checkpoint, so the
        // count is visible in the last snapshot... which we can no longer
        // query (server is gone) — assert via the global registry instead.
        assert!(
            astra_obs::global().snapshot().counter("serve.checkpoints") >= 1,
            "shutdown must write a final checkpoint"
        );
    }
}
