//! The benchmark's own small HTTP/1.1 client.
//!
//! It keeps its connection open between requests unless the response
//! says `Connection: close` (or the server drops it), and counts the
//! connections it opens, so a server that starts keeping connections
//! alive is measured without changing the client.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
    /// Whether the server announced `Connection: close`.
    pub close: bool,
}

/// Client-side instants of one exchange.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Before connecting (fresh connection) or before writing (reused).
    pub start: Instant,
    /// When the TCP connect returned; `None` on a reused connection.
    pub connected: Option<Instant>,
    /// When the request was fully written.
    pub written: Instant,
    /// When the first response byte was available.
    pub first_byte: Instant,
    /// When the last response byte was read.
    pub done: Instant,
}

/// A keep-alive HTTP/1.1 client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connections: u64,
}

impl Client {
    /// A client for `addr` with a per-socket read/write `timeout`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Client {
            addr,
            timeout,
            conn: None,
            connections: 0,
        }
    }

    fn connect(&mut self) -> io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        self.connections += 1;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(BufReader::new(stream))
    }

    /// Sends `POST path` with a JSON `body` and reads the response.
    /// A reused connection that the server closed before answering is
    /// retried once on a fresh one.
    pub fn post(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<(Response, Timing)> {
        let mut request = format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        for (name, value) in headers {
            request.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        request.extend_from_slice(b"\r\n");
        request.extend_from_slice(body);
        match self.conn.take() {
            Some(conn) => match self.exchange(conn, &request, Instant::now(), None) {
                Err((_, false)) => self.fresh_exchange(&request),
                other => other.map_err(|(e, _)| e),
            },
            None => self.fresh_exchange(&request),
        }
    }

    fn fresh_exchange(&mut self, request: &[u8]) -> io::Result<(Response, Timing)> {
        let start = Instant::now();
        let conn = self.connect()?;
        let connected = Instant::now();
        self.exchange(conn, request, start, Some(connected))
            .map_err(|(e, _)| e)
    }

    /// Writes `request` and reads one response. The error side says
    /// whether any response byte had arrived.
    fn exchange(
        &mut self,
        mut conn: BufReader<TcpStream>,
        request: &[u8],
        start: Instant,
        connected: Option<Instant>,
    ) -> Result<(Response, Timing), (io::Error, bool)> {
        conn.get_mut().write_all(request).map_err(|e| (e, false))?;
        let written = Instant::now();
        let available = conn.fill_buf().map_err(|e| (e, false))?.len();
        if available == 0 {
            return Err((
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a response",
                ),
                false,
            ));
        }
        let first_byte = Instant::now();
        let response = read_response(&mut conn).map_err(|e| (e, true))?;
        let done = Instant::now();
        if !response.close {
            self.conn = Some(conn);
        }
        Ok((
            response,
            Timing {
                start,
                connected,
                written,
                first_byte,
                done,
            },
        ))
    }
}

/// Parses one HTTP/1.1 response: status line, headers, then a
/// `Content-Length` body, or a body up to EOF when the server closes
/// the connection and sends no length.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.trim_end().splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| bad(format!("bad status code in {line:?}")))?,
        _ => return Err(bad(format!("bad status line {line:?}"))),
    };
    let mut headers = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers".to_string()));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        let (name, value) = l
            .split_once(':')
            .ok_or_else(|| bad(format!("bad header line {l:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let find = |name: &str| headers.iter().find(|(n, _)| n == name).map(|(_, v)| v);
    let close = find("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    if find("transfer-encoding").is_some() {
        return Err(bad("transfer-encoding is not supported".to_string()));
    }
    let body = match find("content-length") {
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| bad(format!("bad content-length {len:?}")))?;
            let mut body = vec![0; len];
            reader.read_exact(&mut body)?;
            body
        }
        None if close => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
        None => return Err(bad("keep-alive response without a length".to_string())),
    };
    Ok(Response {
        status,
        headers,
        body,
        close,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn parses_a_canned_close_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 13\r\nConnection: close\r\n\r\n{\"value\": 1}\nTRAILING";
        let r = read_response(&mut &raw[..]).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"{\"value\": 1}\n");
        assert!(r.close);
        assert_eq!(
            r.headers[0],
            ("content-type".to_string(), "application/json".to_string())
        );
    }

    #[test]
    fn keep_alive_and_read_to_eof_bodies() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n";
        let r = read_response(&mut &raw[..]).unwrap();
        assert_eq!((r.status, r.close, r.body.len()), (429, false, 0));
        assert_eq!(r.headers[0], ("retry-after".to_string(), "1".to_string()));
        let raw = b"HTTP/1.0 503 Service Unavailable\r\nConnection: Close\r\n\r\nbusy";
        let r = read_response(&mut &raw[..]).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (503, &b"busy"[..]));
    }

    #[test]
    fn rejects_malformed_responses() {
        for raw in [
            &b"SSH-2.0-OpenSSH\r\n\r\n"[..],
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno-colon\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n",
        ] {
            assert!(read_response(&mut &raw[..]).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn reuses_the_connection_unless_told_to_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: two keep-alive answers, the second one
            // closing; second connection: one more answer.
            for answers in [vec![false, true], vec![true]] {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                for close in answers {
                    let mut line = String::new();
                    let mut len = 0usize;
                    loop {
                        line.clear();
                        reader.read_line(&mut line).unwrap();
                        if let Some(v) = line.strip_prefix("Content-Length: ") {
                            len = v.trim().parse().unwrap();
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    let mut body = vec![0; len];
                    reader.read_exact(&mut body).unwrap();
                    let conn = if close { "Connection: close\r\n" } else { "" };
                    write!(
                        stream,
                        "HTTP/1.1 200 OK\r\n{conn}Content-Length: 2\r\n\r\nok"
                    )
                    .unwrap();
                }
            }
        });
        let mut client = Client::new(addr, Duration::from_secs(5));
        let (_, first) = client.post("/", &[], b"{}").unwrap();
        assert!(first.connected.is_some());
        let (_, second) = client.post("/", &[], b"{}").unwrap();
        assert!(second.connected.is_none());
        let (r, third) = client.post("/", &[("X-Test", "1")], b"{}").unwrap();
        assert_eq!(r.body, b"ok");
        assert!(third.connected.is_some());
        assert_eq!(client.connections, 2);
        server.join().unwrap();
    }
}
