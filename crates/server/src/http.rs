//! A minimal HTTP/1.1 subset: GET requests in, status + headers + body
//! out. Enough for a localhost demo server; not a general web server.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Longest request line a worker buffers, its line break included: a
/// 4 096-point append is about a tenth of it.
pub const MAX_REQUEST_LINE: usize = 1 << 20;
/// Most header bytes a worker buffers for one request, all lines and the
/// blank one that ends them together.
pub const MAX_HEADER_BYTES: usize = 64 << 10;

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
        Request::read_from(&mut reader)?
            .ok_or_else(|| HttpError::BadRequest("empty request".into()))
    }

    /// Read the next request off a persistent connection. `Ok(None)` is a
    /// clean end-of-stream **between** requests (the peer hung up, which
    /// is how keep-alive connections normally end); garbage or truncation
    /// mid-request is still an error. A request line past
    /// [`MAX_REQUEST_LINE`] is [`HttpError::UriTooLong`] and headers past
    /// [`MAX_HEADER_BYTES`] are [`HttpError::HeadersTooLarge`], each
    /// refused after reading no more than the limit.
    pub fn read_from<R: Read>(reader: &mut BufReader<R>) -> Result<Option<Request>, HttpError> {
        let mut line = String::new();
        let n = read_line_within(reader, &mut line, MAX_REQUEST_LINE)
            .map_err(|_| HttpError::BadRequest("unreadable request line".into()))?
            .ok_or(HttpError::UriTooLong)?;
        if n == 0 {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| HttpError::BadRequest("missing method".into()))?
            .to_owned();
        let target = parts
            .next()
            .ok_or_else(|| HttpError::BadRequest("missing path".into()))?;
        let _version = parts
            .next()
            .ok_or_else(|| HttpError::BadRequest("missing version".into()))?;
        // Drain headers up to the blank line; the only one the demo API
        // acts on is `Connection`.
        let mut keep_alive = false;
        let mut budget = MAX_HEADER_BYTES;
        loop {
            let mut h = String::new();
            let n = read_line_within(reader, &mut h, budget)
                .map_err(|_| HttpError::BadRequest("unreadable header".into()))?
                .ok_or(HttpError::HeadersTooLarge)?;
            budget -= n;
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
            Some(v) => v.parse().map(Some).map_err(|_| {
                HttpError::BadRequest(format!("parameter {name:?} has invalid value {v:?}"))
            }),
        }
    }
}

/// Read one line into `line`, taking at most `limit` bytes off `reader`:
/// the bytes read, or `None` when `limit` of them held no line break.
fn read_line_within<R: Read>(
    reader: &mut BufReader<R>,
    line: &mut String,
    limit: usize,
) -> std::io::Result<Option<usize>> {
    let n = reader.by_ref().take(limit as u64).read_line(line)?;
    Ok((n < limit || line.ends_with('\n')).then_some(n))
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
                    .ok_or_else(|| HttpError::BadRequest("truncated percent escape".into()))?;
                let hv = std::str::from_utf8(hex)
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| HttpError::BadRequest("invalid percent escape".into()))?;
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
    String::from_utf8(out).map_err(|_| HttpError::BadRequest("non-utf8 after decoding".into()))
}

/// Protocol-level failure; the server loop answers it with
/// [`HttpError::status`] and closes the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed or unreadable: 400.
    BadRequest(String),
    /// A request line longer than [`MAX_REQUEST_LINE`]: 414.
    UriTooLong,
    /// Headers larger than [`MAX_HEADER_BYTES`]: 431.
    HeadersTooLarge,
}

impl HttpError {
    /// The status code that answers this failure.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::UriTooLong => 414,
            HttpError::HeadersTooLarge => 431,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::UriTooLong => {
                write!(f, "request line longer than {MAX_REQUEST_LINE} bytes")
            }
            HttpError::HeadersTooLarge => {
                write!(f, "headers larger than {MAX_HEADER_BYTES} bytes")
            }
        }
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
    pub fn write_keep_alive_to<W: Write>(&self, mut w: W, keep_alive: bool) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            414 => "URI Too Long",
            422 => "Unprocessable Content",
            431 => "Request Header Fields Too Large",
            502 => "Bad Gateway",
            _ => "Internal Server Error",
        };
        let connection = if keep_alive { "keep-alive" } else { "close" };
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            connection
        )?;
        w.write_all(&self.body)?;
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
    fn request_lines_and_header_blocks_are_read_up_to_their_limits_and_no_further() {
        let line = |bytes: usize| {
            let head = "GET /x?v=";
            let tail = " HTTP/1.1\r\n";
            format!(
                "{head}{}{tail}",
                "1".repeat(bytes - head.len() - tail.len())
            )
        };
        let at_limit = format!("{}\r\n", line(MAX_REQUEST_LINE));
        let req = Request::parse(at_limit.as_bytes()).unwrap();
        assert_eq!(req.param("v").map(str::len), Some(MAX_REQUEST_LINE - 20));
        let over = format!("{}\r\n", line(MAX_REQUEST_LINE + 1));
        let err = Request::parse(over.as_bytes()).unwrap_err();
        assert_eq!((err.clone(), err.status()), (HttpError::UriTooLong, 414));
        // A line that never ends is cut off at the limit, not buffered.
        let endless = std::io::repeat(b'a');
        assert_eq!(Request::parse(endless).unwrap_err(), HttpError::UriTooLong);

        // 64 KiB of header lines, the blank line that ends them included.
        let headers = |bytes: usize| {
            let pad = "X-Pad: ".len() + "\r\n".len();
            let mut block = String::new();
            while bytes - block.len() > 2 + 1024 {
                block += &format!("X-Pad: {}\r\n", "p".repeat(1024 - pad));
            }
            block += &format!("X-Pad: {}\r\n", "p".repeat(bytes - block.len() - 2 - pad));
            format!("GET /x HTTP/1.1\r\n{block}\r\n")
        };
        let req = Request::parse(headers(MAX_HEADER_BYTES).as_bytes()).unwrap();
        assert_eq!(req.path, "/x");
        let err = Request::parse(headers(MAX_HEADER_BYTES + 1).as_bytes()).unwrap_err();
        assert_eq!(
            (err.clone(), err.status()),
            (HttpError::HeadersTooLarge, 431)
        );
        let endless = b"GET /x HTTP/1.1\r\n".chain(std::io::repeat(b'h'));
        assert_eq!(
            Request::parse(endless).unwrap_err(),
            HttpError::HeadersTooLarge
        );
        let mut out = Vec::new();
        Response::error(err.status(), &err.to_string())
            .write_to(&mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(
            s.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{s}"
        );
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
