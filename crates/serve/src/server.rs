//! The daemon: a bounded thread-per-connection HTTP server over a shared
//! tenant registry.
//!
//! * **Cold start** — [`Server::bind`] enumerates the root store's tenant
//!   scopes and restores every tenant before accepting a byte, so a
//!   restarted daemon answers queries for all previously-acked days
//!   immediately.
//! * **Concurrency** — connections are served by plain threads, bounded
//!   by a counting semaphore ([`ServerConfig::max_connections`]); within
//!   a connection, requests run sequentially (HTTP/1.1 keep-alive).
//!   Tenants are isolated: each owns its locks, so one tenant's heavy
//!   finish never blocks another's queries.
//! * **Shutdown** — `POST /v1/admin/shutdown` flips the draining flag
//!   (new work gets `503`), waits for in-flight requests, drops open
//!   days, checkpoints every tenant with unpersisted state, answers, and
//!   stops the accept loop.

use crate::error::ServeError;
use crate::http::{read_request, write_response, ReadError, Request, Response};
use crate::tenant::{Tenant, TenantLimits};
use crate::wire::{parse_day, ShutdownAck, TenantSpec, TenantsPage};
use earlybird_engine::LifecycleConfig;
use earlybird_obs::{Gauge, MetricsRegistry};
use earlybird_store::{validate_scope_name, ObjectStore};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Concurrent connections served; excess connections wait.
    pub max_connections: usize,
    /// Per-request body ceiling in bytes.
    pub max_body_bytes: usize,
    /// Per-tenant admission ceilings.
    pub limits: TenantLimits,
    /// Store lifecycle (compaction trigger, retention) for every tenant.
    pub lifecycle: LifecycleConfig,
    /// The metrics registry every tenant's engine and store report into,
    /// served as Prometheus text at `GET /metrics`. Defaults to a fresh
    /// enabled registry; pass [`MetricsRegistry::disabled`] to skip span
    /// clock reads.
    pub metrics: Arc<MetricsRegistry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 32,
            max_body_bytes: 64 << 20,
            limits: TenantLimits::default(),
            lifecycle: LifecycleConfig::default(),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }
}

/// The shared tenant registry: name → tenant, plus the root store the
/// scopes hang off.
struct Registry {
    /// The root store; `&self`-only API, but the trait is not `Sync`, so
    /// scoping new tenants goes through this mutex.
    root: Mutex<Box<dyn ObjectStore>>,
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl Registry {
    fn get(&self, name: &str) -> Result<Arc<Tenant>, ServeError> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::unknown_tenant(name))
    }
}

/// A bounded counting semaphore over `Mutex` + `Condvar`.
struct Semaphore {
    permits: Mutex<usize>,
    released: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore { permits: Mutex::new(permits), released: Condvar::new() }
    }

    fn acquire(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *permits == 0 {
            permits = self.released.wait(permits).unwrap_or_else(PoisonError::into_inner);
        }
        *permits -= 1;
    }

    fn release(&self) {
        *self.permits.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.released.notify_one();
    }
}

struct Shared {
    cfg: ServerConfig,
    registry: Registry,
    draining: AtomicBool,
    stop_accepting: AtomicBool,
    active_requests: AtomicUsize,
    connections: Semaphore,
    connections_active: Gauge,
    requests_inflight: Gauge,
}

/// The running daemon. [`Server::bind`] restores tenants and starts
/// listening; [`Server::run`] serves until a shutdown request.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and restores every tenant found under the root
    /// store's scopes (cold start).
    ///
    /// # Errors
    ///
    /// [`ServeError::internal`]-shaped failures for bind or restore
    /// problems — the daemon refuses to start half-restored.
    pub fn bind(root: Box<dyn ObjectStore>, cfg: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::internal(format!("cannot bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::internal(format!("cannot read bound address: {e}")))?;

        let mut tenants = BTreeMap::new();
        let scopes = root.scopes().map_err(|e| ServeError::from_store(&e))?;
        for name in scopes {
            let scope = root.scope(&name).map_err(|e| ServeError::from_store(&e))?;
            // A `None` is crash residue from an unacked creation; the
            // scope is skipped, not an error, and a later PUT may claim
            // the name again.
            if let Some(tenant) =
                Tenant::restore(&name, scope, cfg.lifecycle, cfg.limits, &cfg.metrics)?
            {
                tenants.insert(name, Arc::new(tenant));
            }
        }

        let shared = Arc::new(Shared {
            connections: Semaphore::new(cfg.max_connections.max(1)),
            connections_active: cfg.metrics.gauge(
                "serve_connections_active",
                "Connections currently holding a pool permit",
                &[],
            ),
            requests_inflight: cfg.metrics.gauge(
                "serve_requests_inflight",
                "Requests currently being dispatched",
                &[],
            ),
            cfg,
            registry: Registry { root: Mutex::new(root), tenants: RwLock::new(tenants) },
            draining: AtomicBool::new(false),
            stop_accepting: AtomicBool::new(false),
            active_requests: AtomicUsize::new(0),
        });
        Ok(Server { listener, addr, shared })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Tenants currently registered (restored + created).
    pub fn tenant_count(&self) -> usize {
        self.shared.registry.tenants.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Serves connections until a graceful shutdown completes. Returns
    /// once the accept loop has stopped and all worker threads finished.
    pub fn run(self) {
        let mut workers = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.stop_accepting.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            self.shared.connections.acquire();
            let shared = Arc::clone(&self.shared);
            let addr = self.addr;
            workers.push(std::thread::spawn(move || {
                shared.connections_active.inc();
                serve_connection(stream, &shared, addr);
                shared.connections_active.dec();
                shared.connections.release();
            }));
            workers.retain(|w| !w.is_finished());
        }
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// Spawns [`Server::run`] on a background thread and returns a
    /// handle for tests and examples.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let join = std::thread::spawn(move || self.run());
        ServerHandle { addr, join }
    }
}

/// Handle to a daemon spawned with [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    join: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to exit (after a shutdown request).
    pub fn join(self) {
        let _ = self.join.join();
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared, self_addr: SocketAddr) {
    // Every response is written as one buffer, but disable Nagle anyway
    // so acks never wait out a delayed-ACK window.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader, shared.cfg.max_body_bytes) {
            Ok(req) => req,
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(msg)) | Err(ReadError::TooLarge(msg)) => {
                let resp = ServeError::bad_request(msg).to_response();
                let _ = write_response(&mut write_half, &resp, false);
                return;
            }
        };
        let keep_alive = !request.wants_close();
        shared.active_requests.fetch_add(1, Ordering::SeqCst);
        shared.requests_inflight.inc();
        let response = dispatch(&request, shared, self_addr);
        shared.requests_inflight.dec();
        shared.active_requests.fetch_sub(1, Ordering::SeqCst);
        if write_response(&mut write_half, &response, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

fn json_ok<T: serde::Serialize>(status: u16, value: &T) -> Response {
    Response::json(status, serde_json::to_string(value).expect("response serializes"))
}

fn dispatch(req: &Request, shared: &Shared, self_addr: SocketAddr) -> Response {
    // A panicking handler answers 500 instead of unwinding past the
    // in-flight count and connection permit that shutdown waits on.
    match std::panic::catch_unwind(AssertUnwindSafe(|| route(req, shared, self_addr))) {
        Ok(Ok(resp)) => resp,
        Ok(Err(err)) => err.to_response(),
        Err(_) => ServeError::internal("request handler panicked").to_response(),
    }
}

fn route(req: &Request, shared: &Shared, self_addr: SocketAddr) -> Result<Response, ServeError> {
    let segments = req.segments();
    let method = req.method.as_str();

    match segments.as_slice() {
        // The scrape endpoint lives outside /v1: it follows the
        // Prometheus convention, not the service API's versioning.
        ["metrics"] if method == "GET" => {
            Ok(Response::text(200, shared.cfg.metrics.render_prometheus()))
        }
        ["v1", "healthz"] if method == "GET" => {
            let draining = shared.draining.load(Ordering::SeqCst);
            Ok(Response::json(200, format!("{{\"status\":\"ok\",\"draining\":{draining}}}")))
        }
        ["v1", "tenants"] if method == "GET" => {
            let tenants = shared.registry.tenants.read().unwrap_or_else(PoisonError::into_inner);
            let page = TenantsPage { tenants: tenants.values().map(|t| t.summary()).collect() };
            Ok(json_ok(200, &page))
        }
        ["v1", "admin", "shutdown"] if method == "POST" => shutdown(shared, self_addr),
        // Drains the registry's slow-op ring: each record is returned at
        // most once, so a polling operator sees every stall exactly once.
        ["v1", "admin", "slow-ops"] if method == "GET" => {
            let page = crate::wire::SlowOpsPage {
                slow_ops: shared
                    .cfg
                    .metrics
                    .take_slow_ops()
                    .into_iter()
                    .map(crate::wire::SlowOpWire::from)
                    .collect(),
            };
            Ok(json_ok(200, &page))
        }
        ["v1", tenant] if method == "PUT" => {
            refuse_if_draining(shared)?;
            create_tenant(shared, tenant, &req.body)
        }
        ["v1", tenant, "days", day, "spans"] if method == "POST" => {
            refuse_if_draining(shared)?;
            let tenant = shared.registry.get(tenant)?;
            let day = parse_day(day)?;
            let text = std::str::from_utf8(&req.body)
                .map_err(|_| ServeError::bad_request("span body must be UTF-8 log lines"))?;
            Ok(json_ok(200, &tenant.push_span(day, text)?))
        }
        ["v1", tenant, "days", day, "finish"] if method == "POST" => {
            refuse_if_draining(shared)?;
            let tenant = shared.registry.get(tenant)?;
            Ok(json_ok(200, &tenant.finish_day(parse_day(day)?)?))
        }
        ["v1", tenant, "days", day, "report"] if method == "GET" => {
            let tenant = shared.registry.get(tenant)?;
            Ok(json_ok(200, &tenant.report(parse_day(day)?)?))
        }
        ["v1", tenant, "reports"] if method == "GET" => {
            let tenant = shared.registry.get(tenant)?;
            let page = crate::wire::ReportsPage { reports: tenant.reports() };
            Ok(json_ok(200, &page))
        }
        ["v1", tenant, "alerts"] if method == "GET" => {
            let tenant = shared.registry.get(tenant)?;
            let since = match req.query_param("since") {
                None => 0,
                Some(raw) => raw.parse::<u64>().map_err(|_| {
                    ServeError::bad_request(format!("bad since cursor {raw:?} (expected a u64)"))
                })?,
            };
            Ok(json_ok(200, &tenant.alerts_since(since)))
        }
        ["v1", tenant, "investigate"] if method == "POST" => {
            refuse_if_draining(shared)?;
            let tenant = shared.registry.get(tenant)?;
            let body = std::str::from_utf8(&req.body)
                .map_err(|_| ServeError::bad_request("investigate body must be UTF-8 JSON"))?;
            let request: crate::wire::InvestigateRequest = serde_json::from_str(body)
                .map_err(|e| ServeError::bad_request(format!("bad investigate request: {e}")))?;
            Ok(json_ok(200, &tenant.investigate(&request)?))
        }
        // Known route shapes with the wrong verb get a 405, not a 404.
        ["metrics"]
        | ["v1", "tenants"]
        | ["v1", "admin", "shutdown" | "slow-ops"]
        | ["v1", _]
        | ["v1", _, "days", _, "spans" | "finish" | "report"]
        | ["v1", _, "reports" | "alerts" | "investigate"] => {
            Err(ServeError::method_not_allowed(method, &req.path))
        }
        _ => Err(ServeError::not_found(&req.path)),
    }
}

fn refuse_if_draining(shared: &Shared) -> Result<(), ServeError> {
    if shared.draining.load(Ordering::SeqCst) {
        Err(ServeError::draining())
    } else {
        Ok(())
    }
}

fn create_tenant(shared: &Shared, name: &str, body: &[u8]) -> Result<Response, ServeError> {
    validate_scope_name(name)
        .map_err(|e| ServeError::bad_request(format!("bad tenant name: {e}")))?;
    let body = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("tenant spec must be UTF-8 JSON"))?;
    let spec: TenantSpec = serde_json::from_str(body)
        .map_err(|e| ServeError::bad_request(format!("bad tenant spec: {e}")))?;

    {
        let tenants = shared.registry.tenants.read().unwrap_or_else(PoisonError::into_inner);
        if tenants.contains_key(name) {
            return Err(ServeError::tenant_exists(name));
        }
    }
    let scope = {
        let root = shared.registry.root.lock().unwrap_or_else(PoisonError::into_inner);
        root.scope(name).map_err(|e| ServeError::from_store(&e))?
    };
    let tenant = Tenant::create(
        name,
        &spec,
        scope,
        shared.cfg.lifecycle,
        shared.cfg.limits,
        &shared.cfg.metrics,
    )?;

    let mut tenants = shared.registry.tenants.write().unwrap_or_else(PoisonError::into_inner);
    if tenants.contains_key(name) {
        // Lost a PUT race; the winner's store already holds the scope.
        return Err(ServeError::tenant_exists(name));
    }
    let summary = tenant.summary();
    tenants.insert(name.to_string(), Arc::new(tenant));
    Ok(json_ok(201, &summary))
}

fn shutdown(shared: &Shared, self_addr: SocketAddr) -> Result<Response, ServeError> {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return Err(ServeError::draining());
    }
    // Wait out every other in-flight request (this one counts itself).
    while shared.active_requests.load(Ordering::SeqCst) > 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let tenants: Vec<Arc<Tenant>> = {
        let map = shared.registry.tenants.read().unwrap_or_else(PoisonError::into_inner);
        map.values().cloned().collect()
    };
    let mut checkpointed = 0u64;
    let mut dropped = 0u64;
    for tenant in tenants {
        let (wrote, open_dropped) = tenant.drain_and_checkpoint()?;
        checkpointed += u64::from(wrote);
        dropped += open_dropped;
    }
    shared.stop_accepting.store(true, Ordering::SeqCst);
    // Unblock the accept loop so run() can observe the stop flag.
    let _ = TcpStream::connect(self_addr);
    Ok(json_ok(
        200,
        &ShutdownAck { tenants_checkpointed: checkpointed, open_days_dropped: dropped },
    ))
}
