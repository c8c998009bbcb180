//! The scrape endpoint: a std-only, nonblocking HTTP/1.0 listener.
//!
//! Design constraints, in order: (1) the sample hot path must never block
//! on a scraper — serving a request only reads atomics and briefly locks
//! the registry's name maps, never any pipeline structure; (2) no
//! dependencies — the listener speaks just enough HTTP/1.0 for `curl`,
//! Prometheus and `rfdump top`; (3) misbehaving clients cannot wedge the
//! server — requests are size- and time-bounded, concurrent scrapers are
//! capped (excess connections get `503`), and malformed requests are
//! rejected with `400` without touching the registry.

use crate::prom;
use rfd_telemetry::Registry;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum scraper connections being served at once.
pub(crate) const MAX_SCRAPERS: usize = 4;
/// Maximum bytes of request head we will read.
const MAX_REQUEST_BYTES: usize = 8192;
/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Accept-loop poll interval while idle.
const POLL: Duration = Duration::from_millis(10);

/// A bound (not yet running) metrics endpoint.
pub struct MetricsServer {
    listener: TcpListener,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
}

/// Controls a running [`MetricsServer`].
pub struct MetricsHandle {
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsHandle {
    /// Asks the serve loop to exit.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Shuts down and waits for the serve thread.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl MetricsServer {
    /// Binds the endpoint. The server serves `registry` — metrics on
    /// `/metrics`, the typed event ring on `/events`.
    pub fn bind<A: ToSocketAddrs>(addr: A, registry: Arc<Registry>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            registry,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop on a background thread.
    pub fn spawn(self) -> MetricsHandle {
        let shutdown = self.shutdown.clone();
        let thread = std::thread::Builder::new()
            .name("rfd-obs-metrics".into())
            .spawn(move || self.run())
            .expect("spawn metrics thread");
        MetricsHandle {
            shutdown,
            thread: Some(thread),
        }
    }

    /// Runs the accept loop until shutdown. Usually called via [`spawn`].
    ///
    /// [`spawn`]: MetricsServer::spawn
    pub fn run(self) {
        let active = Arc::new(AtomicUsize::new(0));
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if active.load(Ordering::SeqCst) >= MAX_SCRAPERS {
                        let _ = respond(
                            &stream,
                            "503 Service Unavailable",
                            "text/plain",
                            "too many scrapers\n",
                        );
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    let registry = self.registry.clone();
                    let active = active.clone();
                    let _ = std::thread::Builder::new()
                        .name("rfd-obs-scrape".into())
                        .spawn(move || {
                            let _ = serve_connection(stream, &registry);
                            active.fetch_sub(1, Ordering::SeqCst);
                        });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(_) => std::thread::sleep(POLL),
            }
        }
    }
}

/// Reads one request head (bounded), routes it, writes one response.
fn serve_connection(mut stream: TcpStream, registry: &Registry) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
                if buf.len() > MAX_REQUEST_BYTES {
                    return respond(
                        &stream,
                        "400 Bad Request",
                        "text/plain",
                        "request too large\n",
                    );
                }
            }
            Err(_) => return respond(&stream, "400 Bad Request", "text/plain", "read error\n"),
        }
    }

    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if parts.next().is_none() && v.starts_with("HTTP/") => {
            (m, p, v)
        }
        _ => {
            return respond(
                &stream,
                "400 Bad Request",
                "text/plain",
                "bad request line\n",
            );
        }
    };
    let _ = version;
    if method != "GET" {
        return respond(
            &stream,
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
    }
    // Strip any query string; scrape endpoints ignore parameters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => respond(
            &stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &prom::encode_registry(registry),
        ),
        "/events" => respond(
            &stream,
            "200 OK",
            "application/json",
            &registry.events().to_json().to_json(),
        ),
        "/healthz" => respond(&stream, "200 OK", "text/plain", "ok\n"),
        _ => respond(&stream, "404 Not Found", "text/plain", "unknown path\n"),
    }
}

fn respond(mut stream: &TcpStream, status: &str, ctype: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{scrape, scrape_raw};
    use rfd_telemetry::event::EventKind;

    fn serve_demo() -> (std::net::SocketAddr, MetricsHandle, Arc<Registry>) {
        let reg = Arc::new(Registry::new());
        reg.counter("peaks.detected").add(7);
        reg.events().emit(EventKind::GovernorShed, "level 0 -> 1");
        let srv = MetricsServer::bind("127.0.0.1:0", reg.clone()).unwrap();
        let addr = srv.local_addr().unwrap();
        (addr, srv.spawn(), reg)
    }

    #[test]
    fn serves_metrics_and_events() {
        let (addr, handle, _reg) = serve_demo();
        let text = scrape(&addr.to_string(), "/metrics").unwrap();
        assert!(text.contains("rfd_peaks_detected 7"));
        crate::prom::validate(&text).expect("scrape output must be 0.0.4");
        let events = scrape(&addr.to_string(), "/events").unwrap();
        let doc = rfd_telemetry::json::parse(&events).unwrap();
        let ring = doc.get("ring").unwrap().as_arr().unwrap();
        assert_eq!(ring[0].get("kind").unwrap().as_str(), Some("governor_shed"));
        handle.join();
    }

    #[test]
    fn scrape_sees_live_updates() {
        let (addr, handle, reg) = serve_demo();
        let addr = addr.to_string();
        let before = scrape(&addr, "/metrics").unwrap();
        assert!(before.contains("rfd_peaks_detected 7"));
        reg.counter("peaks.detected").add(3);
        let after = scrape(&addr, "/metrics").unwrap();
        assert!(after.contains("rfd_peaks_detected 10"));
        handle.join();
    }

    #[test]
    fn malformed_requests_get_400_not_a_hang() {
        let (addr, handle, _reg) = serve_demo();
        for garbage in [
            "EHLO not-http\r\n\r\n",
            "GET\r\n\r\n",
            "GET /metrics\r\n\r\n",
            "GET /metrics HTTP/1.0 extra\r\n\r\n",
            "\r\n\r\n",
        ] {
            let (status, _) = scrape_raw(&addr.to_string(), garbage.as_bytes()).unwrap();
            assert!(status.contains("400"), "{garbage:?} -> {status}");
        }
        // POST gets 405, unknown path 404; a good request still works after.
        let (status, _) = scrape_raw(&addr.to_string(), b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        assert!(status.contains("405"));
        let (status, _) = scrape_raw(&addr.to_string(), b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        assert!(status.contains("404"));
        assert!(scrape(&addr.to_string(), "/healthz")
            .unwrap()
            .contains("ok"));
        handle.join();
    }

    #[test]
    fn shutdown_is_prompt() {
        let (_addr, handle, _reg) = serve_demo();
        let t0 = std::time::Instant::now();
        handle.join();
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
