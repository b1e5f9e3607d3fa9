//! Incremental reader for `rpavd`'s chunked NDJSON event feed.
//!
//! `rpav_daemon::client::request` reads a response to EOF, so it cannot
//! say when the *first* event arrived. This reader decodes the chunked
//! framing as bytes arrive — over one connection, with a read timeout —
//! and hands out complete lines one at a time; everything else the
//! benchmark asks the daemon goes through `client::get` / `post_json`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Longest chunk-size line accepted (hex digits plus extensions).
const MAX_SIZE_LINE: usize = 64;
/// Longest response head accepted.
const MAX_HEAD: usize = 16 * 1024;

#[derive(Debug, PartialEq)]
enum Framing {
    /// Accumulating the hex size line of the next chunk.
    Size(Vec<u8>),
    /// Inside a chunk with this many payload bytes left.
    Data(usize),
    /// Expecting the CRLF that closes a chunk (bytes left of it).
    DataEnd(usize),
    /// The zero-length chunk arrived: the stream is complete.
    Done,
}

/// One `GET …/events` response being followed.
pub struct EventStream<R: Read> {
    reader: R,
    /// HTTP status of the response head.
    pub status: u16,
    framing: Framing,
    partial: Vec<u8>,
    lines: VecDeque<Vec<u8>>,
    /// De-chunked payload bytes seen so far.
    pub body_bytes: u64,
}

impl<R: Read> EventStream<R> {
    /// Read and check the response head; `reader` is positioned at the
    /// start of the response.
    pub fn open(mut reader: R) -> io::Result<Self> {
        let mut raw = Vec::new();
        let mut buf = [0u8; 4096];
        let split = loop {
            if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if raw.len() > MAX_HEAD {
                return Err(bad("response head too large"));
            }
            let n = reader.read(&mut buf)?;
            if n == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            raw.extend_from_slice(&buf[..n]);
        };
        let head = String::from_utf8_lossy(&raw[..split]).into_owned();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("no status code"))?;
        let chunked = head.lines().any(|l| {
            l.to_ascii_lowercase()
                .contains("transfer-encoding: chunked")
        });
        if !chunked {
            return Err(bad("event feed is not chunked"));
        }
        let mut stream = EventStream {
            reader,
            status,
            framing: Framing::Size(Vec::new()),
            partial: Vec::new(),
            lines: VecDeque::new(),
            body_bytes: 0,
        };
        stream.feed(&raw[split + 4..])?;
        Ok(stream)
    }

    /// Decode `bytes` — any fragment of the chunked body, split anywhere.
    fn feed(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            match &mut self.framing {
                Framing::Size(line) => {
                    let byte = bytes[0];
                    bytes = &bytes[1..];
                    if byte != b'\n' {
                        if line.len() >= MAX_SIZE_LINE {
                            return Err(bad("chunk size line too long"));
                        }
                        line.push(byte);
                        continue;
                    }
                    let text = String::from_utf8_lossy(line);
                    let hex = text.trim().split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(hex, 16).map_err(|_| bad("bad chunk size"))?;
                    self.framing = if size == 0 {
                        Framing::Done
                    } else {
                        Framing::Data(size)
                    };
                }
                Framing::Data(left) => {
                    let take = (*left).min(bytes.len());
                    let (data, rest) = bytes.split_at(take);
                    bytes = rest;
                    *left -= take;
                    if *left == 0 {
                        self.framing = Framing::DataEnd(2);
                    }
                    self.body_bytes += data.len() as u64;
                    for &b in data {
                        if b == b'\n' {
                            self.lines.push_back(std::mem::take(&mut self.partial));
                        } else {
                            self.partial.push(b);
                        }
                    }
                }
                Framing::DataEnd(left) => {
                    let take = (*left).min(bytes.len());
                    bytes = &bytes[take..];
                    *left -= take;
                    if *left == 0 {
                        self.framing = Framing::Size(Vec::new());
                    }
                }
                // Trailers after the last chunk carry nothing we read.
                Framing::Done => return Ok(()),
            }
        }
        Ok(())
    }

    /// The next complete line (without its `\n`), blocking until one
    /// arrives; `None` once the stream has ended. A connection that
    /// closes before the terminating chunk is an error: the feed was cut.
    pub fn next_line(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut buf = [0u8; 8192];
        loop {
            if let Some(line) = self.lines.pop_front() {
                return Ok(Some(line));
            }
            if self.framing == Framing::Done {
                return Ok(None);
            }
            let n = self.reader.read(&mut buf)?;
            if n == 0 {
                return Err(bad("event feed closed before its last chunk"));
            }
            self.feed(&buf[..n])?;
        }
    }
}

/// Open `GET path` on `addr` and return the stream positioned after the
/// response head. `timeout` bounds every socket read.
pub fn follow(addr: &str, path: &str, timeout: Duration) -> io::Result<EventStream<TcpStream>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: rpavd\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )?;
    EventStream::open(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out the wire image `step` bytes per `read` call.
    struct Drip<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn wire(chunks: &[&[u8]], terminate: bool) -> Vec<u8> {
        let mut w = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n".to_vec();
        for c in chunks {
            w.extend_from_slice(format!("{:x}\r\n", c.len()).as_bytes());
            w.extend_from_slice(c);
            w.extend_from_slice(b"\r\n");
        }
        if terminate {
            w.extend_from_slice(b"0\r\n\r\n");
        }
        w
    }

    fn lines_of(data: &[u8], step: usize) -> io::Result<Vec<String>> {
        let mut s = EventStream::open(Drip { data, step })?;
        assert_eq!(s.status, 200);
        let mut out = Vec::new();
        while let Some(line) = s.next_line()? {
            out.push(String::from_utf8(line).unwrap());
        }
        Ok(out)
    }

    #[test]
    fn lines_survive_every_split_of_the_wire() {
        // One line per chunk, a line split across chunks, two lines in
        // one chunk, and a chunk longer than 15 bytes (two hex digits).
        let w = wire(
            &[
                b"{\"seq\":0}\n",
                b"{\"seq\":",
                b"1}\n",
                b"{\"seq\":2}\n{\"seq\":3}\n",
                b"{\"seq\":4,\"cell\":\"GCC-Rural-P1-Air#r0\"}\n",
            ],
            true,
        );
        let want = vec![
            "{\"seq\":0}",
            "{\"seq\":1}",
            "{\"seq\":2}",
            "{\"seq\":3}",
            "{\"seq\":4,\"cell\":\"GCC-Rural-P1-Air#r0\"}",
        ];
        for step in [1, 2, 3, 5, 7, 16, 4096] {
            assert_eq!(lines_of(&w, step).unwrap(), want, "step {step}");
        }
    }

    #[test]
    fn counts_payload_bytes_without_framing() {
        let w = wire(&[b"ab\n", b"cde\n"], true);
        let mut s = EventStream::open(Drip { data: &w, step: 3 }).unwrap();
        while s.next_line().unwrap().is_some() {}
        assert_eq!(s.body_bytes, 7);
    }

    #[test]
    fn a_cut_feed_is_an_error_not_an_end() {
        let w = wire(&[b"{\"seq\":0}\n"], false);
        let mut s = EventStream::open(Drip { data: &w, step: 4 }).unwrap();
        assert_eq!(s.next_line().unwrap().unwrap(), b"{\"seq\":0}");
        assert!(s.next_line().is_err());
    }

    #[test]
    fn rejects_unchunked_and_malformed_responses() {
        let plain = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}";
        assert!(EventStream::open(Drip {
            data: plain,
            step: 8
        })
        .is_err());
        let mut w = wire(&[], false);
        w.extend_from_slice(b"zz\r\n");
        let mut s = EventStream::open(Drip { data: &w, step: 8 }).unwrap();
        assert!(s.next_line().is_err());
    }
}
