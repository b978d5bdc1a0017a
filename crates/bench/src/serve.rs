//! Zero-dependency metrics serving plane for `dhnsw_cli serve`.
//!
//! A deliberately tiny HTTP/1.1 responder on `std::net::TcpListener` —
//! no async runtime, no HTTP crate — good enough for a Prometheus
//! scraper or a `curl` loop:
//!
//! | endpoint | payload |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition 0.0.4 |
//! | `GET /health` | `HealthReport` JSON (probes the live node) |
//! | `GET /traces` | chrome://tracing JSON of the span ring, the one home of span trees |
//! | `GET /profile/folded` | collapsed-stack profile of the span ring, the batches `/traces` shows (flamegraph.pl / inferno / speedscope) |
//! | `GET /exemplars` | tail exemplar store JSON (K-slowest, reservoir; records only) |
//! | `GET /whyslow/<trace-id>` | ranked why-slow diagnosis of any id `/exemplars` lists |
//! | `GET /timeseries?window=<s>&step=<n>` | series-recorder history JSON (rates + windowed quantiles) |
//! | `GET /anomalies` | anomaly records fired by the series recorder |
//! | `GET /top` | the `top` dashboard frame (text), rendered from the series recorder |
//! | `GET /shutdown` | acknowledges, then stops the accept loop |
//!
//! The accept loop is bounded by construction: connections are served
//! one at a time, request heads are capped at [`MAX_REQUEST_BYTES`],
//! and every socket gets a read/write timeout, so a stuck or malicious
//! client can delay the next scrape but never wedge or exhaust the
//! process. Shutdown is cooperative through an [`AtomicBool`] the
//! caller shares with the loop (and that `/shutdown` sets). Every
//! response carries `Cache-Control: no-store`: all payloads are live
//! state, and a cached `/timeseries` frame would silently freeze a
//! dashboard.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Largest request head (request line + headers) the server reads.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_millis(1_000);

/// How long the accept loop sleeps when no connection is pending.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// A keyed lookup source: `Some(body)` when the key resolves,
/// `None` renders as a 404.
pub type LookupSource = Box<dyn Fn(&str) -> Option<String> + Send>;

/// Content sources behind the endpoints. Boxed closures so the CLI can
/// capture a live compute node while tests plug in canned strings.
pub struct ServeSources {
    /// Body for `GET /metrics` (Prometheus text exposition).
    pub metrics: Box<dyn Fn() -> String + Send>,
    /// Body for `GET /health`; an `Err` renders as a 500 with the
    /// message so a failed probe is visible to the scraper.
    pub health: Box<dyn Fn() -> Result<String, String> + Send>,
    /// Body for `GET /traces` (chrome trace-event JSON).
    pub traces: Box<dyn Fn() -> String + Send>,
    /// Body for `GET /profile/folded` (collapsed-stack profile text).
    pub profile: Box<dyn Fn() -> String + Send>,
    /// Body for `GET /exemplars` (tail exemplar store JSON).
    pub exemplars: Box<dyn Fn() -> String + Send>,
    /// Body for `GET /whyslow/<trace-id>`: `Some(json)` when the id
    /// parses and resolves to a retained exemplar, `None` renders 404.
    pub whyslow: LookupSource,
    /// Body for `GET /timeseries`, given the parsed `(window_s, step)`:
    /// `window_s` seconds back from the newest point (`0`, the default,
    /// keeps everything retained), thinned to every `step`-th point.
    pub timeseries: Box<dyn Fn(u64, usize) -> String + Send>,
    /// Body for `GET /anomalies` (series-recorder anomaly records).
    pub anomalies: Box<dyn Fn() -> String + Send>,
    /// Body for `GET /top` (the dashboard frame, plain text).
    pub top: Box<dyn Fn() -> String + Send>,
}

/// Extracts the value of `key` from a raw query string
/// (`a=1&b=2`). Returns `None` when the key is absent; an empty value
/// (`a=`) returns `Some("")`.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

/// A response ready to encode onto the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 404, 405, 500).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    fn new(status: u16, content_type: &'static str, body: String) -> Self {
        Response {
            status,
            content_type,
            body,
        }
    }

    /// Serializes status line, headers, and body.
    pub fn encode(&self) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            _ => "Unknown",
        };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

const PROM_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";
const JSON_TYPE: &str = "application/json; charset=utf-8";
const TEXT_TYPE: &str = "text/plain; charset=utf-8";

/// Routes one request. `/shutdown` flips `shutdown` before answering,
/// so the caller's accept loop exits after this response is written.
pub fn handle(method: &str, path: &str, sources: &ServeSources, shutdown: &AtomicBool) -> Response {
    if method != "GET" {
        return Response::new(405, TEXT_TYPE, "only GET is supported\n".to_string());
    }
    // Split the query string off the route: `/metrics?x=y` routes as
    // `/metrics`; `/timeseries` receives its parameters.
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    match path {
        "/metrics" => Response::new(200, PROM_TYPE, (sources.metrics)()),
        "/health" => match (sources.health)() {
            Ok(body) => Response::new(200, JSON_TYPE, body),
            Err(e) => Response::new(500, TEXT_TYPE, format!("health probe failed: {e}\n")),
        },
        "/traces" => Response::new(200, JSON_TYPE, (sources.traces)()),
        "/profile/folded" => Response::new(200, TEXT_TYPE, (sources.profile)()),
        "/exemplars" => Response::new(200, JSON_TYPE, (sources.exemplars)()),
        "/timeseries" => match timeseries_params(query) {
            Ok((window_s, step)) => {
                Response::new(200, JSON_TYPE, (sources.timeseries)(window_s, step))
            }
            Err(key) => Response::new(
                400,
                JSON_TYPE,
                format!(
                    "{{\"error\": \"bad parameter\", \"param\": \"{key}\", \
                     \"hint\": \"{key} must be an integer >= 1 when given\"}}\n"
                ),
            ),
        },
        "/anomalies" => Response::new(200, JSON_TYPE, (sources.anomalies)()),
        "/top" => Response::new(200, TEXT_TYPE, (sources.top)()),
        "/shutdown" => {
            shutdown.store(true, Ordering::SeqCst);
            Response::new(200, TEXT_TYPE, "shutting down\n".to_string())
        }
        _ => {
            if let Some(id) = path.strip_prefix("/whyslow/") {
                if let Some(body) = (sources.whyslow)(id) {
                    return Response::new(200, JSON_TYPE, body);
                }
            }
            not_found(path)
        }
    }
}

/// Parses `/timeseries`'s `(window, step)`, defaulting to `(0, 1)`. A
/// parameter that is given must be an integer >= 1: anything else names
/// the first offending parameter, because a value the recorder cannot use
/// is a client error, not an empty or whole-ring result (`step=0` would
/// select no sample, `window=0` is an empty window).
fn timeseries_params(query: &str) -> Result<(u64, usize), &'static str> {
    let param = |key: &'static str, default: u64| match query_param(query, key) {
        None => Ok(default),
        Some(v) => v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or(key),
    };
    Ok((param("window", 0)?, param("step", 1)? as usize))
}

/// The 404 response: a JSON body naming the endpoints, so a scraper
/// that typos a path gets a machine-readable hint rather than prose.
fn not_found(path: &str) -> Response {
    // The offending path is echoed with quotes/backslashes escaped so
    // the body stays valid JSON whatever the client sent.
    let escaped: String = path
        .chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect();
    Response::new(
        404,
        JSON_TYPE,
        format!(
            "{{\"error\": \"not found\", \"path\": \"{escaped}\", \"endpoints\": [\"/metrics\", \"/health\", \"/traces\", \"/profile/folded\", \"/exemplars\", \"/whyslow/<trace-id>\", \"/timeseries\", \"/anomalies\", \"/top\", \"/shutdown\"]}}\n",
        ),
    )
}

/// Reads the request head (capped at [`MAX_REQUEST_BYTES`]) and returns
/// `(method, path)` from its request line ([`parse_head`]).
fn read_request(stream: &mut TcpStream) -> std::io::Result<(String, String)> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    Ok(parse_head(&head))
}

/// `(method, path)` of a raw request head's first line: whatever bytes
/// arrived, an empty method or a `/` path where the line has none.
fn parse_head(head: &[u8]) -> (String, String) {
    let text = String::from_utf8_lossy(head);
    let mut parts = text.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("/").to_string();
    (method, path)
}

/// Serves requests on `listener` until `shutdown` turns true (set
/// externally or by `GET /shutdown`). Returns the number of requests
/// answered. The listener is switched to non-blocking so the loop can
/// observe an external shutdown signal even when no client connects.
pub fn serve_loop(
    listener: TcpListener,
    sources: &ServeSources,
    shutdown: &AtomicBool,
) -> std::io::Result<u64> {
    listener.set_nonblocking(true)?;
    let mut served = 0u64;
    while !shutdown.load(Ordering::SeqCst) {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_POLL);
                continue;
            }
            Err(e) => return Err(e),
        };
        // The accepted socket inherits non-blocking from the listener
        // on some platforms; force blocking I/O with a timeout instead.
        stream.set_nonblocking(false).ok();
        stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
        stream.set_write_timeout(Some(IO_TIMEOUT)).ok();
        let response = match read_request(&mut stream) {
            Ok((method, path)) => handle(&method, &path, sources, shutdown),
            // A client that hangs or sends garbage costs one timeout,
            // nothing else: drop the connection and keep serving.
            Err(_) => continue,
        };
        if stream.write_all(&response.encode()).is_ok() {
            stream.flush().ok();
        }
        served += 1;
    }
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn canned() -> ServeSources {
        ServeSources {
            metrics: Box::new(|| "# HELP dhnsw_up server liveness\ndhnsw_up 1\n".to_string()),
            health: Box::new(|| Ok("{\"mode\": \"full\"}".to_string())),
            traces: Box::new(|| "{\"traceEvents\": []}".to_string()),
            profile: Box::new(|| "query_batch;network 120\n".to_string()),
            exemplars: Box::new(|| "{\"occupancy\": 1}".to_string()),
            whyslow: Box::new(|id| {
                (id == "7").then(|| "{\"verdict\": \"retry_storm\"}".to_string())
            }),
            timeseries: Box::new(|window_s, step| {
                format!("{{\"echo\": \"{window_s}/{step}\", \"points\": []}}")
            }),
            anomalies: Box::new(|| "{\"fired\": 0, \"records\": []}".to_string()),
            top: Box::new(|| "dhnsw top — canned\n".to_string()),
        }
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn handle_routes_every_endpoint() {
        let sources = canned();
        let shutdown = AtomicBool::new(false);
        let m = handle("GET", "/metrics", &sources, &shutdown);
        assert_eq!(m.status, 200);
        assert!(m.content_type.contains("version=0.0.4"));
        assert!(m.body.contains("dhnsw_up 1"));
        let h = handle("GET", "/health?verbose=1", &sources, &shutdown);
        assert_eq!((h.status, h.body.as_str()), (200, "{\"mode\": \"full\"}"));
        assert_eq!(handle("GET", "/traces", &sources, &shutdown).status, 200);
        let p = handle("GET", "/profile/folded", &sources, &shutdown);
        assert_eq!(p.status, 200);
        assert!(p.body.contains("query_batch;network 120"));
        let e = handle("GET", "/exemplars", &sources, &shutdown);
        assert_eq!((e.status, e.content_type), (200, JSON_TYPE));
        let w = handle("GET", "/whyslow/7", &sources, &shutdown);
        assert_eq!(w.status, 200);
        assert!(w.body.contains("retry_storm"));
        // /timeseries hands its source the parsed parameters, absent
        // ones at their defaults; /anomalies is plain.
        let ts = handle("GET", "/timeseries?window=30&step=2", &sources, &shutdown);
        assert_eq!((ts.status, ts.content_type), (200, JSON_TYPE));
        assert!(ts.body.contains("\"echo\": \"30/2\""), "{}", ts.body);
        let ts_bare = handle("GET", "/timeseries", &sources, &shutdown);
        assert!(
            ts_bare.body.contains("\"echo\": \"0/1\""),
            "{}",
            ts_bare.body
        );
        // A value that is not an integer >= 1 is a client error: a 400
        // JSON body naming the offending parameter, and the source is
        // never consulted (it never falls back to the whole ring).
        for (query, param) in [
            ("step=0", "step"),
            ("window=0", "window"),
            ("window=0&step=2", "window"),
            ("window=30&step=0", "step"),
            ("window=abc", "window"),
            ("step=-1", "step"),
            ("window=30&step=1.5", "step"),
            ("window=&step=2", "window"),
        ] {
            let bad = handle("GET", &format!("/timeseries?{query}"), &sources, &shutdown);
            assert_eq!((bad.status, bad.content_type), (400, JSON_TYPE), "{query}");
            assert!(
                bad.body.contains(&format!("\"param\": \"{param}\"")),
                "{query}: {}",
                bad.body
            );
            assert!(!bad.body.contains("echo"), "{query} reached the source");
        }
        // Integers >= 1 and absent parameters pass through.
        assert_eq!(
            handle("GET", "/timeseries?window=1&step=1", &sources, &shutdown).status,
            200
        );
        let an = handle("GET", "/anomalies", &sources, &shutdown);
        assert_eq!((an.status, an.content_type), (200, JSON_TYPE));
        assert!(an.body.contains("\"records\": []"));
        let top = handle("GET", "/top", &sources, &shutdown);
        assert_eq!((top.status, top.content_type), (200, TEXT_TYPE));
        assert_eq!(top.body, "dhnsw top — canned\n");
        // An unretained or malformed id is a 404, not a 500.
        assert_eq!(
            handle("GET", "/whyslow/99", &sources, &shutdown).status,
            404
        );
        assert_eq!(handle("GET", "/whyslow/", &sources, &shutdown).status, 404);
        let nope = handle("GET", "/nope", &sources, &shutdown);
        assert_eq!((nope.status, nope.content_type), (404, JSON_TYPE));
        assert!(nope.body.contains("\"path\": \"/nope\""));
        assert!(nope.body.contains("/profile/folded"));
        assert!(nope.body.contains("/timeseries"));
        assert!(nope.body.contains("/anomalies"));
        assert!(nope.body.contains("/top"));
        assert_eq!(handle("POST", "/metrics", &sources, &shutdown).status, 405);
        assert!(!shutdown.load(Ordering::SeqCst));
        let s = handle("GET", "/shutdown", &sources, &shutdown);
        assert_eq!(s.status, 200);
        assert!(shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn explain_last_is_gone() {
        // A batch's read-cost ledger is its `/traces` root span's
        // `bytes_<cause>` arguments; no endpoint serves a second copy.
        let r = handle("GET", "/explain/last", &canned(), &AtomicBool::new(false));
        assert_eq!((r.status, r.content_type), (404, JSON_TYPE));
        let listed = r.body.split("\"endpoints\"").nth(1).expect("endpoint list");
        assert!(!listed.contains("explain"), "{}", r.body);
    }

    #[test]
    fn every_mutated_request_head_answers_without_panicking() {
        // Every prefix of a valid head, and every byte of it replaced by
        // each of a few hostile bytes: parsing plus routing answers one of
        // the statuses the server speaks, and never panics.
        let valid = b"GET /whyslow/3?x=1 HTTP/1.1\r\nHost: h\r\n\r\n";
        let mut sources = canned();
        sources.whyslow = Box::new(|id| (id == "3").then(|| "{}".to_string()));
        let mut heads: Vec<Vec<u8>> = (0..=valid.len()).map(|n| valid[..n].to_vec()).collect();
        for i in 0..valid.len() {
            for b in [0x00, 0xFF, b' ', b'\r', b'\n', b'?', b'/'] {
                let mut head = valid.to_vec();
                head[i] = b;
                heads.push(head);
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for head in &heads {
            let (method, path) = parse_head(head);
            let status = handle(&method, &path, &sources, &AtomicBool::new(false)).status;
            assert!(
                [200, 400, 404, 405].contains(&status),
                "{status} for {:?}",
                String::from_utf8_lossy(head)
            );
            seen.insert(status);
        }
        // The sweep reaches the route, the 404 and the 405.
        assert!(seen.is_superset(&[200, 404, 405].into()), "{seen:?}");
        assert_eq!(parse_head(valid), ("GET".into(), "/whyslow/3?x=1".into()));
    }

    #[test]
    fn query_param_parses_raw_query_strings() {
        assert_eq!(query_param("window=30&step=2", "window"), Some("30"));
        assert_eq!(query_param("window=30&step=2", "step"), Some("2"));
        assert_eq!(query_param("window=30&step=2", "missing"), None);
        assert_eq!(query_param("", "window"), None);
        assert_eq!(query_param("window=", "window"), Some(""));
        assert_eq!(query_param("window", "window"), Some(""));
    }

    #[test]
    fn handle_surfaces_health_errors_as_500() {
        let mut sources = canned();
        sources.health = Box::new(|| Err("qp closed".to_string()));
        let shutdown = AtomicBool::new(false);
        let r = handle("GET", "/health", &sources, &shutdown);
        assert_eq!(r.status, 500);
        assert!(r.body.contains("qp closed"));
    }

    #[test]
    fn response_encoding_carries_length_and_body() {
        let r = Response::new(200, TEXT_TYPE, "hello\n".to_string());
        let wire = String::from_utf8(r.encode()).unwrap();
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(wire.contains("Content-Length: 6\r\n"));
        // Live state must never be cached by an intermediary.
        assert!(wire.contains("Cache-Control: no-store\r\n"));
        assert!(wire.ends_with("\r\n\r\nhello\n"));
        // Content-Length counts bytes, not chars: "µs" is 3 bytes.
        let r = Response::new(200, TEXT_TYPE, "µs\n".to_string());
        let wire = r.encode();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("Content-Length: 4\r\n"), "{text}");
        let body_start = text.find("\r\n\r\n").unwrap() + 4;
        assert_eq!(wire.len() - body_start, 4);
    }

    #[test]
    fn not_found_body_is_json_even_for_hostile_paths() {
        let r = not_found("/a\"b\\c\u{7}");
        assert_eq!(r.status, 404);
        assert!(r.body.contains("\"path\": \"/a\\\"b\\\\c\""), "{}", r.body);
        // Body parses as the JSON it claims to be: balanced quotes,
        // no raw control bytes.
        assert!(!r.body.bytes().any(|b| b < 0x20 && b != b'\n'));
    }

    #[test]
    fn serve_loop_answers_scrapes_and_honors_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let server = std::thread::spawn(move || serve_loop(listener, &canned(), &flag).unwrap());

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("dhnsw_up 1"));
        let missing = get(addr, "/does-not-exist");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert!(missing.contains("\"error\": \"not found\""), "{missing}");
        let folded = get(addr, "/profile/folded");
        assert!(folded.contains("query_batch;network 120"), "{folded}");
        let why = get(addr, "/whyslow/7");
        assert!(why.contains("retry_storm"), "{why}");
        let ts = get(addr, "/timeseries?window=5");
        assert!(ts.contains("\"points\": []"), "{ts}");
        assert!(ts.contains("Cache-Control: no-store"), "{ts}");
        let ts_zero = get(addr, "/timeseries?step=0");
        assert!(ts_zero.starts_with("HTTP/1.1 400 Bad Request"), "{ts_zero}");
        assert!(ts_zero.contains("\"param\": \"step\""), "{ts_zero}");
        let an = get(addr, "/anomalies");
        assert!(an.contains("\"records\": []"), "{an}");
        let top = get(addr, "/top");
        assert!(top.ends_with("\r\n\r\ndhnsw top — canned\n"), "{top}");
        let bye = get(addr, "/shutdown");
        assert!(bye.starts_with("HTTP/1.1 200 OK"), "{bye}");
        let served = server.join().unwrap();
        assert_eq!(served, 9);
        assert!(shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn serve_loop_survives_a_garbage_client() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let server = std::thread::spawn(move || serve_loop(listener, &canned(), &flag).unwrap());

        // A client that connects and immediately hangs up.
        drop(TcpStream::connect(addr).unwrap());
        // The next real request still gets served.
        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        get(addr, "/shutdown");
        server.join().unwrap();
    }
}
