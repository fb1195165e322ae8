//! The HTTP/1.1 layer shared by the scrape [`crate::Sidecar`] and the
//! query gateway in `problp-engine`. [`HttpServer`] is the one server
//! core both run on: bind, a single accept loop in front of a bounded
//! worker pool, per-connection deadlines, request parsing with hard
//! size limits (oversized heads → 431, oversized bodies → 413,
//! truncated bodies → 400 instead of unbounded reads), an `Overloaded`
//! answer when the queue is full, and stop/join on drop. A front end supplies
//! only its answer function. The strict client ([`read_response`] /
//! [`http_request`] / [`http_post`] / [`http_get`]) fails malformed
//! status lines with a typed error and uses `Content-Length` instead of
//! blocking until the read timeout.
//!
//! Everything is `std::net` + `std::io`; no dependencies, no panics.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Hard size limits of [`read_request`]. "Head" is the request line
/// plus all header lines together (including their CRLFs).
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Max bytes of request line + headers before the read is rejected
    /// with [`HttpError::HeadTooLarge`] (→ 431).
    pub max_head: usize,
    /// Max declared `Content-Length` before the body is rejected with
    /// [`HttpError::BodyTooLarge`] (→ 413), *without* reading it.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head: 8 * 1024,
            max_body: 64 * 1024,
        }
    }
}

/// One parsed request: the routing fields plus the raw body bytes.
/// Header names are lower-cased at parse time; values keep their case.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// The request method, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The request target (`/v1/query`).
    pub path: String,
    /// Parsed headers, names lower-cased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The first value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == want)
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`read_request`] rejected a connection. Every protocol-level
/// variant carries the HTTP status it should be answered with
/// ([`HttpError::status`]); [`HttpError::Io`] means the socket died and
/// there is nobody left to answer.
#[derive(Debug)]
pub enum HttpError {
    /// The request is not parseable HTTP/1.1 (garbage request line,
    /// header without a colon, body shorter than its declared
    /// `Content-Length`). Answered 400.
    Malformed(String),
    /// Request line + headers exceeded [`HttpLimits::max_head`].
    /// Answered 431.
    HeadTooLarge {
        /// The configured head cap, bytes.
        limit: usize,
    },
    /// The declared `Content-Length` exceeded [`HttpLimits::max_body`];
    /// the body was not read. Answered 413.
    BodyTooLarge {
        /// The configured body cap, bytes.
        limit: usize,
        /// The declared `Content-Length`.
        length: usize,
    },
    /// The client stalled past the socket's read timeout mid-request.
    /// Answered 408.
    Timeout,
    /// The socket failed outright (reset, broken pipe); no response is
    /// possible.
    Io(io::Error),
}

impl HttpError {
    /// The status line this rejection should be answered with, or
    /// `None` for [`HttpError::Io`] (just drop the connection).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Malformed(_) => Some((400, "Bad Request")),
            HttpError::HeadTooLarge { .. } => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge { .. } => Some((413, "Content Too Large")),
            HttpError::Timeout => Some((408, "Request Timeout")),
            HttpError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request line + headers exceed {limit} bytes")
            }
            HttpError::BodyTooLarge { limit, length } => {
                write!(
                    f,
                    "declared body of {length} bytes exceeds the {limit}-byte cap"
                )
            }
            HttpError::Timeout => write!(f, "client stalled mid-request"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Classifies a raw socket error: stalls (read timeout) become
/// [`HttpError::Timeout`], everything else is terminal [`HttpError::Io`].
fn classify_io(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Reads one head line (request line or header) without ever buffering
/// more than the remaining head `budget`: over-budget lines fail
/// [`HttpError::HeadTooLarge`] instead of growing a string until the
/// client stops. Returns `None` on a clean EOF before any byte.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    limit: usize,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let n = reader
        .by_ref()
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut raw)
        .map_err(classify_io)?;
    if n == 0 {
        return Ok(None);
    }
    if !raw.ends_with(b"\n") {
        // Either the line overflowed the budget, or the stream ended
        // mid-line; only the former gets its own status.
        if n > *budget {
            return Err(HttpError::HeadTooLarge { limit });
        }
        return Err(HttpError::Malformed(
            "connection closed mid-line".to_string(),
        ));
    }
    *budget = budget.saturating_sub(n);
    while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
        raw.pop();
    }
    match String::from_utf8(raw) {
        Ok(line) => Ok(Some(line)),
        Err(_) => Err(HttpError::Malformed("head line is not UTF-8".to_string())),
    }
}

/// Reads and parses one HTTP/1.1 request under `limits`.
///
/// The head (request line + headers) is read through a hard byte budget
/// — an attacker streaming an endless header line costs
/// `limits.max_head` bytes of memory, then a 431. The body is only read
/// after its declared `Content-Length` passed the `max_body` cap (413
/// otherwise, without reading), and a connection that closes or stalls
/// before delivering the declared bytes fails typed
/// ([`HttpError::Malformed`] / [`HttpError::Timeout`]) instead of
/// blocking forever or returning a short body.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    limits: &HttpLimits,
) -> Result<HttpRequest, HttpError> {
    let mut budget = limits.max_head;
    let request_line = read_head_line(reader, limits.max_head, &mut budget)?
        .ok_or_else(|| HttpError::Malformed("connection closed before a request".to_string()))?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/") {
        return Err(HttpError::Malformed(format!(
            "bad protocol version {version:?}"
        )));
    }
    let mut headers = Vec::new();
    loop {
        let line = read_head_line(reader, limits.max_head, &mut budget)?
            .ok_or_else(|| HttpError::Malformed("connection closed inside headers".to_string()))?;
        if line.is_empty() {
            break;
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()))
            }
            None => {
                return Err(HttpError::Malformed(format!(
                    "header line without a colon: {line:?}"
                )))
            }
        }
    }
    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("unparseable content-length {v:?}")))?,
        None => 0,
    };
    if length > limits.max_body {
        return Err(HttpError::BodyTooLarge {
            limit: limits.max_body,
            length,
        });
    }
    let mut body = vec![0u8; length];
    let mut got = 0;
    while got < length {
        match reader.read(&mut body[got..]) {
            Ok(0) => {
                return Err(HttpError::Malformed(format!(
                    "body ended after {got} of {length} declared bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) => return Err(classify_io(e)),
        }
    }
    Ok(HttpRequest {
        method,
        path,
        headers,
        body,
    })
}

/// Bytes a rejecting server is willing to drain before closing.
const DRAIN_CAP: usize = 256 * 1024;

/// Briefly drains what is left of a rejected request so closing the
/// socket does not RST away the error response still sitting in the
/// client's receive buffer (a close with unread data discards delivered
/// bytes on most TCP stacks). Bounded to 256 KiB and a short read
/// timeout, so a hostile sender cannot turn the courtesy into a hold.
fn drain_rejected(stream: &TcpStream, reader: &mut impl Read) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    let mut total = 0;
    loop {
        match reader.read(&mut sink) {
            Ok(0) => break,
            Ok(n) => {
                total += n;
                if total >= DRAIN_CAP {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// The reason phrase of every status this stack emits.
fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// One response a front end hands back to [`HttpServer`]: written as
/// `Connection: close` with an exact `Content-Length`.
#[derive(Debug)]
pub struct HttpAnswer {
    /// The status code.
    pub code: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`).
    pub headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: String,
}

impl HttpAnswer {
    /// An answer with no extra headers.
    pub fn new(code: u16, content_type: &'static str, body: impl Into<String>) -> HttpAnswer {
        HttpAnswer {
            code,
            content_type,
            headers: Vec::new(),
            body: body.into(),
        }
    }
}

fn write_answer(stream: &mut TcpStream, answer: &HttpAnswer) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        answer.code,
        status_reason(answer.code),
        answer.content_type,
        answer.body.len()
    );
    for (name, value) in &answer.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(answer.body.as_bytes())?;
    stream.flush()
}

/// What an [`HttpServer`] asks its front end to answer.
#[derive(Debug)]
pub enum Incoming<'a> {
    /// A request that parsed within the server's [`HttpLimits`].
    Request(&'a HttpRequest),
    /// A protocol-level reject (400/408/413/431): `code` is
    /// [`HttpError::status`]'s. A dead socket is dropped unanswered.
    Reject {
        /// The status the reject is answered with.
        code: u16,
        /// Why the request was rejected.
        error: &'a HttpError,
    },
    /// The worker queue is full. Answered from the accept thread under
    /// a short write timeout, so backpressure reaches the client
    /// instead of an unbounded queue.
    Overloaded,
}

/// A front end's one answer function: called once per connection.
type AnswerFn = dyn Fn(Incoming<'_>) -> HttpAnswer + Send + Sync;

/// How long the accept loop sleeps when no connection is waiting before
/// it rechecks the stop flag. A blocking accept would save a lone
/// request up to this wait; it stays until the benchmark bounds the
/// memory its faster closed loop then keeps (see the README).
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Read/write deadline of every served connection: bounds how long one
/// client can hold a worker.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Write deadline of an [`Incoming::Overloaded`] answer, so a slow
/// client cannot stall the accept thread.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// The one HTTP/1.1 server core behind the scrape [`crate::Sidecar`] and
/// the query gateway: it binds, runs one nonblocking accept loop in
/// front of a bounded worker pool, and on each connection sets the IO
/// deadlines, reads one request under hard [`HttpLimits`] and writes
/// whatever the front end's answer function returns (draining a
/// rejected request briefly first). A full worker queue is answered
/// [`Incoming::Overloaded`] instead of queueing unboundedly. Stops and
/// joins every thread on [`HttpServer::shutdown`] or drop.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 for an OS-assigned port, read back via
    /// [`HttpServer::local_addr`]) and serves it on a `name-accept`
    /// thread plus `workers` threads `name-<i>`, with at most `backlog`
    /// connections waiting for a worker. Each connection gets
    /// 2-second read/write deadlines.
    pub fn start<F>(
        addr: &str,
        name: &str,
        workers: usize,
        backlog: usize,
        limits: HttpLimits,
        answer: F,
    ) -> io::Result<HttpServer>
    where
        F: Fn(Incoming<'_>) -> HttpAnswer + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let answer: Arc<AnswerFn> = Arc::new(answer);
        let handler: Arc<dyn Fn(TcpStream) + Send + Sync> = {
            let answer = Arc::clone(&answer);
            Arc::new(move |stream| {
                let _ = serve_connection(stream, &limits, &*answer);
            })
        };
        let pool = WorkerPool::new(name, workers, backlog, handler);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                while !stop_flag.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if let Err(mut stream) = pool.dispatch(stream) {
                                let _ = stream
                                    .set_write_timeout(Some(SHED_WRITE_TIMEOUT))
                                    .and_then(|()| {
                                        write_answer(&mut stream, &answer(Incoming::Overloaded))
                                    });
                            }
                        }
                        Err(_) => thread::sleep(ACCEPT_POLL),
                    }
                }
                // Dropping the pool drains the queue and joins the workers.
            })?;
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop, drains the worker queue and joins every
    /// thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(stream: TcpStream, limits: &HttpLimits, answer: &AnswerFn) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    match read_request(&mut reader, limits) {
        Ok(request) => write_answer(&mut stream, &answer(Incoming::Request(&request))),
        Err(error) => {
            // A dead socket has nobody left to answer.
            if let Some((code, _)) = error.status() {
                write_answer(
                    &mut stream,
                    &answer(Incoming::Reject {
                        code,
                        error: &error,
                    }),
                )?;
                drain_rejected(&stream, &mut reader);
            }
            Ok(())
        }
    }
}

/// A fixed-size connection worker pool over a bounded queue: the accept
/// loop stays free to answer (or shed) new connections while at most
/// `workers` requests are being handled, and a full queue hands the
/// connection *back* to the caller ([`WorkerPool::dispatch`]). Dropping
/// the pool joins the workers after the queue drains.
struct WorkerPool {
    tx: Option<mpsc::SyncSender<TcpStream>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) named `name-<i>`, each
    /// pulling connections off a queue of at most `backlog` waiting
    /// connections and running `handler` on them.
    fn new(
        name: &str,
        workers: usize,
        backlog: usize,
        handler: Arc<dyn Fn(TcpStream) + Send + Sync>,
    ) -> WorkerPool {
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .filter_map(|i| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // Holding the lock only across recv keeps the
                        // handoff serialized but the handling parallel.
                        let next = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => return,
                        };
                        match next {
                            Ok(stream) => handler(stream),
                            Err(_) => return, // sender dropped: shutdown
                        }
                    })
                    .ok()
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Queues `stream` for a worker. A full (or shut down) pool returns
    /// the stream so the caller can shed load.
    fn dispatch(&self, stream: TcpStream) -> Result<(), TcpStream> {
        match &self.tx {
            Some(tx) => tx.try_send(stream).map_err(|e| match e {
                TrySendError::Full(s) | TrySendError::Disconnected(s) => s,
            }),
            None => Err(stream),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx = None; // disconnect: workers exit once the queue drains
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// What the client helpers return for one exchange: status code,
/// headers (names lower-cased) and the UTF-8 body.
pub type HttpResponse = (u16, Vec<(String, String)>, String);

/// Reads one HTTP response off `stream`: status code, headers (names
/// lower-cased) and body.
///
/// Malformed status lines fail with a typed
/// [`io::ErrorKind::InvalidData`] error naming the offending line
/// (never a silently degraded code), and a response that declares
/// `Content-Length` is read to exactly that many bytes — no waiting for
/// EOF, so a keep-alive server that never closes cannot park the client
/// on its read timeout. Without `Content-Length` the body runs to EOF
/// (close-delimited), with a read timeout treated as end of body.
pub fn read_response(stream: TcpStream) -> io::Result<HttpResponse> {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let line = status_line.trim_end();
    let code: u16 = match line.strip_prefix("HTTP/") {
        Some(_) => line.split_whitespace().nth(1).and_then(|s| s.parse().ok()),
        None => None,
    }
    .ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad status line {line:?}"),
        )
    })?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed inside response headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let mut body = Vec::new();
    match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => {
            let length: usize = v.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unparseable content-length {v:?}"),
                )
            })?;
            body.resize(length, 0);
            reader.read_exact(&mut body).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response body shorter than its declared {length} bytes"),
                    )
                } else {
                    e
                }
            })?;
        }
        None => {
            // Close-delimited body: EOF ends it; a stalling keep-alive
            // server ends it at the read timeout with what arrived.
            if let Err(e) = reader.read_to_end(&mut body) {
                if !matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) {
                    return Err(e);
                }
            }
        }
    }
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response body is not UTF-8"))?;
    Ok((code, headers, body))
}

/// Issues one `method path` request against `addr` with `Connection:
/// close`, a 2-second connect/read/write timeout, and returns
/// `(status, headers, body)` via [`read_response`].
pub fn http_request(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<HttpResponse> {
    let timeout = Duration::from_secs(2);
    let mut stream = TcpStream::connect_timeout(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(stream)
}

/// [`http_request`] for `POST` with a string body — the shape every
/// gateway client (tests, serve-http self-drive) uses.
pub fn http_post(
    addr: &SocketAddr,
    path: &str,
    headers: &[(&str, String)],
    body: &str,
) -> io::Result<HttpResponse> {
    http_request(addr, "POST", path, headers, body.as_bytes())
}

/// [`http_request`] for a bare `GET path`, returning `(status, body)` —
/// the scrape client of tests and the serve-sim self-check.
pub fn http_get(addr: &SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let (code, _headers, body) = http_request(addr, "GET", path, &[], &[])?;
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    fn parse(text: &str, limits: &HttpLimits) -> Result<HttpRequest, HttpError> {
        read_request(&mut Cursor::new(text.as_bytes()), limits)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer t\r\nContent-Length: 4\r\n\r\nabcd",
            &HttpLimits::default(),
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.header("authorization"), Some("Bearer t"));
        assert_eq!(req.header("AUTHORIZATION"), Some("Bearer t"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_garbage_request_lines() {
        for garbage in ["\r\n", "GET\r\n", "GET /x NOTHTTP\r\n"] {
            let text = format!("{garbage}\r\n");
            assert!(
                matches!(
                    parse(&text, &HttpLimits::default()),
                    Err(HttpError::Malformed(_))
                ),
                "{garbage:?}"
            );
        }
    }

    #[test]
    fn rejects_oversized_heads_without_buffering_them() {
        let limits = HttpLimits {
            max_head: 64,
            max_body: 1024,
        };
        // One endless request line.
        let text = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1000));
        assert!(matches!(
            parse(&text, &limits),
            Err(HttpError::HeadTooLarge { .. })
        ));
        // Many small headers summing past the budget.
        let mut text = String::from("GET / HTTP/1.1\r\n");
        for i in 0..50 {
            text.push_str(&format!("x-h{i}: v\r\n"));
        }
        text.push_str("\r\n");
        assert!(matches!(
            parse(&text, &limits),
            Err(HttpError::HeadTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_oversized_bodies_by_declared_length() {
        let limits = HttpLimits {
            max_head: 1024,
            max_body: 8,
        };
        let text = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        match parse(text, &limits) {
            Err(HttpError::BodyTooLarge {
                limit: 8,
                length: 9,
            }) => {}
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_bodies() {
        let text = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            parse(text, &HttpLimits::default()),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn http_error_statuses() {
        assert_eq!(
            HttpError::Malformed(String::new()).status(),
            Some((400, "Bad Request"))
        );
        assert_eq!(
            HttpError::HeadTooLarge { limit: 1 }.status().map(|s| s.0),
            Some(431)
        );
        assert_eq!(
            HttpError::BodyTooLarge {
                limit: 1,
                length: 2
            }
            .status()
            .map(|s| s.0),
            Some(413)
        );
        assert_eq!(HttpError::Timeout.status().map(|s| s.0), Some(408));
        assert!(HttpError::Io(io::Error::other("x")).status().is_none());
        // Display stays informative for the error bodies.
        assert!(HttpError::BodyTooLarge {
            limit: 8,
            length: 9
        }
        .to_string()
        .contains('9'));
    }

    /// The shed and shutdown path both front ends share. One worker and
    /// a one-slot queue: the first client's request parks the worker
    /// inside the answer function (a channel, not a sleep, says when),
    /// an idle second client fills the queue, so the third connection
    /// gets nothing but the prompt `Overloaded` answer. Once the clients
    /// hang up, shutdown joins every thread promptly.
    #[test]
    fn full_queue_is_shed_and_shutdown_is_prompt() {
        let (entered_tx, entered) = mpsc::channel::<()>();
        let (release, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let sheds = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&sheds);
        let mut server = HttpServer::start(
            "127.0.0.1:0",
            "shed-test",
            1,
            1,
            HttpLimits::default(),
            move |incoming| match incoming {
                Incoming::Overloaded => {
                    counted.fetch_add(1, Ordering::SeqCst);
                    HttpAnswer::new(503, "text/plain", "full\n")
                }
                _ => {
                    let _ = entered_tx.send(());
                    // Held until the test drops `release`.
                    let _ = release_rx.lock().map(|rx| rx.recv());
                    HttpAnswer::new(200, "text/plain", "ok\n")
                }
            },
        )
        .expect("bind");
        // Rebound after the server so a failing assert drops it first,
        // unparking the worker instead of deadlocking the server's drop.
        let release = release;
        let addr = server.local_addr();
        let mut busy = TcpStream::connect(addr).expect("connect busy");
        busy.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
        entered.recv().expect("the worker took the first request");
        // The accept loop takes connections in arrival order: the idle
        // one fills the queue before the third is accepted.
        let idle = TcpStream::connect(addr).expect("connect idle");

        let started = Instant::now();
        let shed = TcpStream::connect(addr).expect("connect shed");
        shed.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let (code, _headers, body) = read_response(shed).expect("shed answer");
        assert_eq!((code, body.as_str()), (503, "full\n"));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shed took {:?}",
            started.elapsed()
        );
        assert_eq!(sheds.load(Ordering::SeqCst), 1);

        drop(release);
        drop(busy);
        drop(idle);
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            started.elapsed()
        );
    }
}
