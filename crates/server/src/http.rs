//! A minimal HTTP/1.1 subset: GET requests in, status + headers + body
//! out. Enough for a localhost demo server; not a general web server.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// A parsed request: method, decoded path, and query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method (only `GET` is served; others get 405).
    pub method: String,
    /// Percent-decoded path, e.g. `/api/match`.
    pub path: String,
    /// Percent-decoded query parameters in order-independent form.
    pub query: Query,
    /// Whether the client asked to reuse the connection
    /// (`Connection: keep-alive`). Keep-alive is strictly opt-in: absent
    /// or any other value (including `close`) means one-shot.
    pub keep_alive: bool,
}

impl Request {
    /// Parse `"GET /path?a=1 HTTP/1.1"` plus headers from a reader.
    pub fn parse<R: Read>(stream: R) -> Result<Request, HttpError> {
        let mut reader = BufReader::new(stream);
        Request::read_from(&mut reader)?.ok_or(HttpError::BadRequest("empty request"))
    }

    /// Read the next request off a persistent connection. `Ok(None)` is a
    /// clean end-of-stream **between** requests (the peer hung up, which
    /// is how keep-alive connections normally end); garbage or truncation
    /// mid-request is still an error.
    pub fn read_from<R: Read>(reader: &mut BufReader<R>) -> Result<Option<Request>, HttpError> {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|_| HttpError::BadRequest("unreadable request line"))?;
        if n == 0 {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or(HttpError::BadRequest("missing method"))?
            .to_owned();
        let target = parts.next().ok_or(HttpError::BadRequest("missing path"))?;
        let _version = parts
            .next()
            .ok_or(HttpError::BadRequest("missing version"))?;
        // Drain headers up to the blank line; the only one the demo API
        // acts on is `Connection`.
        let mut keep_alive = false;
        loop {
            let mut h = String::new();
            let n = reader
                .read_line(&mut h)
                .map_err(|_| HttpError::BadRequest("unreadable header"))?;
            if n == 0 || h == "\r\n" || h == "\n" {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.trim().eq_ignore_ascii_case("connection") {
                    keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
                }
            }
        }
        let (path, query) = parse_target(target)?;
        Ok(Some(Request {
            method,
            path,
            query,
            keep_alive,
        }))
    }

    /// Build a request directly (tests and the pure handler).
    pub fn get(target: &str) -> Result<Request, HttpError> {
        let (path, query) = parse_target(target)?;
        Ok(Request {
            method: "GET".into(),
            path,
            query,
            keep_alive: false,
        })
    }

    /// Query parameter as string.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// Query parameter parsed to a type: `Ok(None)` when absent,
    /// `Err` when present but malformed — so handlers answer 400 with the
    /// offending value instead of silently falling back to a default.
    pub fn param_as<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, HttpError> {
        match self.param(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| HttpError(format!("parameter {name:?} has invalid value {v:?}"))),
        }
    }
}

/// Query parameters, percent-decoded, in order-independent form.
pub type Query = BTreeMap<String, String>;

fn parse_target(target: &str) -> Result<(String, Query), HttpError> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)?;
    let mut query = Query::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(percent_decode(k)?, percent_decode(v)?);
        }
    }
    Ok((path, query))
}

/// Decode `%XX` escapes and `+` (as space, the form convention).
pub fn percent_decode(s: &str) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or(HttpError::BadRequest("truncated percent escape"))?;
                let hv = std::str::from_utf8(hex)
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or(HttpError::BadRequest("invalid percent escape"))?;
                out.push(hv);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::BadRequest("non-utf8 after decoding"))
}

/// Protocol-level failure, mapped to 400 by the server loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError(pub String);

impl HttpError {
    #[allow(non_snake_case)]
    fn BadRequest(msg: impl Into<String>) -> Self {
        HttpError(msg.into())
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request: {}", self.0)
    }
}

impl std::error::Error for HttpError {}

/// An HTTP response ready for serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// MIME type of the body.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// 200 with an SVG body.
    pub fn svg(body: String) -> Response {
        Response {
            status: 200,
            content_type: "image/svg+xml",
            body: body.into_bytes(),
        }
    }

    /// 200 with an HTML body.
    pub fn html(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: message.as_bytes().to_vec(),
        }
    }

    /// Serialise to the wire, closing the connection afterwards.
    pub fn write_to<W: Write>(&self, w: W) -> std::io::Result<()> {
        self.write_keep_alive_to(w, false)
    }

    /// Serialise to the wire, advertising `Connection: keep-alive` when
    /// the serving loop intends to read another request afterwards.
    ///
    /// Head and body leave in one `write_all`: on a socket with Nagle's
    /// algorithm on, a second small write waits for the peer's delayed
    /// ACK (about 40 ms on Linux) before it is sent, on every response
    /// of a keep-alive connection.
    pub fn write_keep_alive_to<W: Write>(&self, mut w: W, keep_alive: bool) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            422 => "Unprocessable Content",
            502 => "Bad Gateway",
            _ => "Internal Server Error",
        };
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut wire = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            connection
        )
        .into_bytes();
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_line_and_query() {
        let raw = b"GET /api/match?series=MA-GrowthRate&start=4&len=8 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = Request::parse(&raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/api/match");
        assert_eq!(req.param("series"), Some("MA-GrowthRate"));
        assert_eq!(req.param_as::<usize>("start").unwrap(), Some(4));
        assert_eq!(req.param_as::<usize>("missing").unwrap(), None::<usize>);
    }

    #[test]
    fn malformed_numeric_params_are_errors_not_defaults() {
        let req = Request::get("/api/match?k=banana&len=8").unwrap();
        let err = req.param_as::<usize>("k").unwrap_err();
        assert!(err.to_string().contains("banana"), "{err}");
        assert!(err.to_string().contains("\"k\""), "{err}");
        assert_eq!(req.param_as::<usize>("len").unwrap(), Some(8));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c").unwrap(), "a b c");
        assert_eq!(percent_decode("100%25").unwrap(), "100%");
        assert!(percent_decode("%zz").is_err());
        assert!(percent_decode("%2").is_err());
    }

    #[test]
    fn get_helper_equals_parse() {
        let a = Request::get("/x?k=v").unwrap();
        let b = Request::parse(&b"GET /x?k=v HTTP/1.1\r\n\r\n"[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Request::parse(&b"\r\n"[..]).is_err());
        assert!(Request::parse(&b"GET\r\n"[..]).is_err());
        assert!(Request::parse(&b"GET /x\r\n"[..]).is_err());
    }

    #[test]
    fn keep_alive_is_strictly_opt_in() {
        let on = Request::parse(&b"GET /x HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n"[..]).unwrap();
        assert!(on.keep_alive);
        let off = Request::parse(&b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"[..]).unwrap();
        assert!(!off.keep_alive);
        let absent = Request::parse(&b"GET /x HTTP/1.1\r\nHost: a\r\n\r\n"[..]).unwrap();
        assert!(!absent.keep_alive);
    }

    #[test]
    fn read_from_streams_pipelined_requests_then_none() {
        let wire = b"GET /a HTTP/1.1\r\nConnection: keep-alive\r\n\r\nGET /b?x=1 HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let a = Request::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(a.path, "/a");
        assert!(a.keep_alive);
        let b = Request::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(b.path, "/b");
        assert_eq!(b.param("x"), Some("1"));
        assert!(!b.keep_alive);
        assert_eq!(Request::read_from(&mut reader).unwrap(), None);
    }

    #[test]
    fn keep_alive_responses_advertise_it() {
        let mut out = Vec::new();
        Response::json("{}".into())
            .write_keep_alive_to(&mut out, true)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Connection: keep-alive\r\n"), "{s}");
        let mut gw = Vec::new();
        Response::error(502, "shard down")
            .write_to(&mut gw)
            .unwrap();
        let s = String::from_utf8(gw).unwrap();
        assert!(s.starts_with("HTTP/1.1 502 Bad Gateway\r\n"), "{s}");
        assert!(s.contains("Connection: close\r\n"), "{s}");
    }

    /// A sink that records how many `write` calls reached it.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_reaches_the_socket_in_one_write() {
        for keep_alive in [true, false] {
            for resp in [
                Response::json("{\"matches\":[]}".into()),
                Response::error(404, "nope"),
                Response::json(String::new()),
            ] {
                let mut sink = CountingWriter::default();
                resp.write_keep_alive_to(&mut sink, keep_alive).unwrap();
                assert_eq!(sink.writes, 1, "keep_alive={keep_alive}");
                assert!(sink.bytes.starts_with(b"HTTP/1.1 "));
                assert!(sink.bytes.ends_with(&resp.body));
            }
        }
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json("{\"ok\":true}".into())
            .write_to(&mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Type: application/json\r\n"));
        assert!(s.contains("Content-Length: 11\r\n"));
        assert!(s.ends_with("{\"ok\":true}"));
        let mut err = Vec::new();
        Response::error(404, "nope").write_to(&mut err).unwrap();
        assert!(String::from_utf8(err)
            .unwrap()
            .starts_with("HTTP/1.1 404 Not Found"));
    }
}
