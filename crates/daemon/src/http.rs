//! Minimal HTTP/1.1 — exactly the subset `rpavd` speaks.
//!
//! The workspace is offline and vendored, so rather than stub a full
//! server stack this module hand-rolls the four things the daemon needs:
//! a bounded request reader (request line + headers + `Content-Length`
//! body), a fixed response writer, a chunked response writer for the
//! NDJSON event feed, and typed errors in the house style (total
//! functions, no panics on wire input).
//!
//! Deliberate non-features: keep-alive (every response closes the
//! connection), transfer-encoding on requests, query strings, and any
//! header beyond `Content-Length`. Clients are `curl` and the in-tree
//! [`crate::client`].

use std::fmt;
use std::io::{self, Read, Write};

/// Request line + headers + the blank line must fit in this many bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Declared request bodies above this are rejected before reading them.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Everything that can go wrong reading a request off the wire.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Connection closed before a full head (or declared body) arrived.
    Truncated,
    /// First line is not `METHOD /path HTTP/1.x`.
    BadRequestLine,
    /// A header line has no `:` separator.
    BadHeader,
    /// Head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` unparsable or above [`MAX_BODY_BYTES`].
    BadLength,
    /// Transport error.
    Io(io::ErrorKind),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Truncated => write!(f, "connection closed mid-request"),
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BadLength => {
                write!(f, "bad Content-Length (cap {MAX_BODY_BYTES} bytes)")
            }
            HttpError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e.kind())
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Verb, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target, as sent (no query-string handling).
    pub path: String,
    /// The body, exactly `Content-Length` bytes (empty without one).
    pub body: Vec<u8>,
}

/// Offset of the head terminator in `buf`, given that none starts before
/// `from`.
fn head_end(buf: &[u8], from: usize) -> Option<usize> {
    let pos = buf[from..].windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(from + pos)
}

/// Read one request. Total over arbitrary wire input: every malformed,
/// oversized, or truncated request maps to a typed [`HttpError`].
pub fn read_request<S: Read>(stream: &mut S) -> Result<Request, HttpError> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let mut scanned = 0;
    let split = loop {
        // The verdict depends on the bytes, not on how the transport cut
        // them into reads: a terminator that arrives in the same read as
        // the byte that crossed the cap is still past the cap.
        match head_end(&raw, scanned) {
            Some(pos) if pos + 4 <= MAX_HEAD_BYTES => break pos,
            Some(_) => return Err(HttpError::HeadTooLarge),
            None if raw.len() > MAX_HEAD_BYTES => return Err(HttpError::HeadTooLarge),
            None => {}
        }
        // A terminator straddling the next read starts at most three
        // bytes back; a head dribbled in byte by byte is scanned once,
        // not once per read.
        scanned = raw.len().saturating_sub(3);
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(HttpError::Truncated);
        }
        raw.extend_from_slice(&buf[..n]);
    };
    let (head, rest) = raw.split_at(split + 4);
    let head = String::from_utf8_lossy(&head[..split]).into_owned();
    let mut lines = head.split("\r\n");

    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if v.starts_with("HTTP/1.") => (m, p, v),
        _ => return Err(HttpError::BadRequestLine),
    };
    let _ = version;

    let mut content_length = 0usize;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n <= MAX_BODY_BYTES)
                .ok_or(HttpError::BadLength)?;
        }
    }

    let mut body = rest.to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(HttpError::Truncated);
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write a complete fixed-length response and flush it. The connection
/// is advertised as closing — `rpavd` is strictly one-shot.
pub fn respond<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Chunked-transfer response writer (the NDJSON event feed).
pub struct Chunked<'a, W: Write> {
    w: &'a mut W,
}

impl<'a, W: Write> Chunked<'a, W> {
    /// Write the response head and return the chunk writer.
    pub fn start(w: &'a mut W, status: u16, content_type: &str) -> io::Result<Self> {
        write!(
            w,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status),
        )?;
        Ok(Chunked { w })
    }

    /// Emit one chunk (empty input is skipped: a zero-length chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Terminate the stream.
    pub fn finish(self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body() {
        let wire = b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut &wire[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let wire = b"GET /metrics HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &wire[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, b"");
    }

    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let wire = b"POST /campaigns HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel";
        for cut in 0..wire.len() {
            let err = read_request(&mut &wire[..cut]).unwrap_err();
            assert_eq!(err, HttpError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let cases: [(&[u8], HttpError); 4] = [
            (b"NONSENSE\r\n\r\n", HttpError::BadRequestLine),
            (b"GET /x SPDY/9\r\n\r\n", HttpError::BadRequestLine),
            (
                b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
                HttpError::BadHeader,
            ),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: zebra\r\n\r\n",
                HttpError::BadLength,
            ),
        ];
        for (wire, want) in cases {
            assert_eq!(read_request(&mut &wire[..]).unwrap_err(), want);
        }
    }

    #[test]
    fn caps_are_enforced() {
        let mut huge = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert_eq!(
            read_request(&mut &huge[..]).unwrap_err(),
            HttpError::HeadTooLarge
        );
        let wire = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            read_request(&mut wire.as_bytes()).unwrap_err(),
            HttpError::BadLength
        );
    }

    #[test]
    fn responses_round_trip() {
        let mut out = Vec::new();
        respond(&mut out, 201, "application/json", b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        let mut c = Chunked::start(&mut out, 200, "application/x-ndjson").unwrap();
        c.chunk(b"a\n").unwrap();
        c.chunk(b"").unwrap();
        c.chunk(b"bc\n").unwrap();
        c.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("2\r\na\n\r\n3\r\nbc\n\r\n0\r\n\r\n"));
    }
}
