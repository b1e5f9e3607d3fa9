//! HTTP request-reader fuzz suite: `rpav_daemon::http::read_request` is
//! a total function over wire input — any byte stream, cut into reads of
//! any size, yields a [`Request`] or a typed [`HttpError`], never a panic
//! — and it is *bounded*: it never takes more off the socket than the
//! head cap, the declared body and one read buffer of slack, no matter
//! what the peer declares or how long it keeps sending.
//!
//! Same discipline as `parser_fuzz.rs` / `spec_json_fuzz.rs`: every
//! generator draws from the deterministic PCG `SimRng`, so a failure
//! reproduces exactly; truncation is exercised at every byte boundary;
//! bit flips must map to a typed error or a clean parse. On top of the
//! three classic generators the corpus aims at what an HTTP peer can get
//! wrong on purpose: oversized and unparsable `Content-Length`, chunked
//! bodies with bad framing (the reader does not speak request chunking
//! and must not be talked into reading them), embedded NULs, and header
//! floods on either side of the head cap.

use rpav_daemon::http::{read_request, HttpError, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use rpav_sim::SimRng;
use std::io::Read;

/// Adversarial cases over the whole suite (the acceptance floor for a
/// parser is 10 000).
const CASES: usize = 12_000;

/// `read_request` reads through a 4 KiB buffer, so it may hold up to one
/// buffer more than it strictly needed when it stops.
const SLACK: usize = 4096;

/// The wire as the reader sees it: `bytes`, handed out in slices of at
/// most `max_read` (so terminators straddle reads), then either EOF or —
/// for a peer that never stops sending — an endless run of `'a'`.
/// Counts what was taken; an endless wire fails the test instead of
/// hanging it if the reader blows through every cap.
struct Wire<'a> {
    bytes: &'a [u8],
    max_read: usize,
    endless: bool,
    taken: usize,
}

impl Read for Wire<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = buf.len().min(self.max_read);
        let n = if self.taken < self.bytes.len() {
            let n = want.min(self.bytes.len() - self.taken);
            buf[..n].copy_from_slice(&self.bytes[self.taken..self.taken + n]);
            n
        } else if self.endless {
            assert!(
                self.taken <= MAX_HEAD_BYTES + MAX_BODY_BYTES + 2 * SLACK,
                "reader ran past every cap on an endless peer"
            );
            buf[..want].fill(b'a');
            want
        } else {
            0
        };
        self.taken += n;
        Ok(n)
    }
}

/// Run one case and hold the outcome to the bounds every case shares.
fn offer(rng: &mut SimRng, bytes: &[u8], endless: bool) -> (Result<Request, HttpError>, usize) {
    // Byte-at-a-time reads only for short inputs: the reader rescans its
    // buffer for the head terminator after every read.
    let max_read = match rng.uniform_u64(0, 4) {
        0 if bytes.len() <= 512 => 1,
        1 => 7,
        2 => 61,
        _ => 8192,
    };
    let mut wire = Wire {
        bytes,
        max_read,
        endless,
        taken: 0,
    };
    let result = read_request(&mut wire);
    let taken = wire.taken;
    match &result {
        Ok(req) => {
            assert!(req.body.len() <= MAX_BODY_BYTES, "body above the cap");
            assert!(
                taken <= MAX_HEAD_BYTES + SLACK + req.body.len() + SLACK,
                "took {taken} bytes for a {}-byte body",
                req.body.len()
            );
            assert!(!req.method.is_empty() && !req.path.is_empty());
        }
        // An in-memory wire has no transport errors to report.
        Err(HttpError::Io(kind)) => panic!("i/o error {kind:?} from an in-memory wire"),
        // EOF can strike anywhere, including mid-body.
        Err(HttpError::Truncated) => assert!(!endless, "EOF reported on an endless wire"),
        // Every other refusal is decided on the head alone: the body is
        // never touched.
        Err(_) => assert!(
            taken <= MAX_HEAD_BYTES + SLACK,
            "took {taken} bytes to refuse a head"
        ),
    }
    (result, taken)
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.uniform_u64(0, 256) as u8).collect()
}

/// A token of `len` printable, separator-free bytes.
fn token(rng: &mut SimRng, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./";
    (0..len)
        .map(|_| ALPHABET[rng.uniform_u64(0, ALPHABET.len() as u64) as usize] as char)
        .collect()
}

/// A well-formed request and the parse it must produce.
struct Valid {
    wire: Vec<u8>,
    method: &'static str,
    path: String,
    body: Vec<u8>,
}

fn valid_request(rng: &mut SimRng) -> Valid {
    const METHODS: [&str; 5] = ["GET", "POST", "PUT", "DELETE", "OPTIONS"];
    let method = METHODS[rng.uniform_u64(0, METHODS.len() as u64) as usize];
    let path_len = rng.uniform_u64(0, 40) as usize;
    let path = format!("/{}", token(rng, path_len));
    let body_len = rng.uniform_u64(0, 200) as usize;
    let body = if rng.chance(0.5) {
        random_bytes(rng, body_len)
    } else {
        Vec::new()
    };
    let mut head = format!("{method} {path} HTTP/1.{}\r\n", rng.uniform_u64(0, 2));
    let mut length_written = false;
    for _ in 0..rng.uniform_u64(0, 6) {
        // The length header lands at a random position among the others.
        if !body.is_empty() && !length_written && rng.chance(0.4) {
            head.push_str(&format!("content-LENGTH:  {} \r\n", body.len()));
            length_written = true;
        }
        let (name_len, value_len) = (rng.uniform_u64(1, 12), rng.uniform_u64(0, 30));
        let (name, value) = (
            token(rng, name_len as usize),
            token(rng, value_len as usize),
        );
        head.push_str(&format!("X-{name}: {value}\r\n"));
    }
    if !body.is_empty() && !length_written {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&body);
    Valid {
        wire,
        method,
        path,
        body,
    }
}

fn assert_parses_as(result: Result<Request, HttpError>, want: &Valid) {
    let req = result.unwrap_or_else(|e| {
        panic!(
            "valid request refused with {e:?}: {:?}",
            String::from_utf8_lossy(&want.wire)
        )
    });
    assert_eq!(req.method, want.method);
    assert_eq!(req.path, want.path);
    assert_eq!(req.body, want.body);
}

#[test]
fn noise_truncations_and_bit_flips_are_typed() {
    let mut rng = SimRng::seed_from_u64(0x4854_5450_0001);
    let (mut ok, mut err) = (0u64, 0u64);

    // 1) Pure noise, sometimes seasoned with the bytes the reader keys on.
    for _ in 0..CASES / 4 {
        let len = rng.uniform_u64(0, 512) as usize;
        let mut noise = random_bytes(&mut rng, len);
        if rng.chance(0.5) && !noise.is_empty() {
            for _ in 0..rng.uniform_u64(1, 6) {
                let at = rng.uniform_u64(0, noise.len() as u64) as usize;
                let spice: &[u8] = match rng.uniform_u64(0, 4) {
                    0 => b"\r\n\r\n",
                    1 => b"\r\n",
                    2 => b" HTTP/1.1",
                    _ => b"Content-Length:",
                };
                noise.splice(at..at, spice.iter().copied());
            }
        }
        match offer(&mut rng, &noise, false).0 {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }

    // 2) Every truncation of a valid request: a strict prefix is a
    //    connection that closed mid-request, the whole is the request.
    let mut spent = 0;
    while spent < CASES / 4 {
        let valid = valid_request(&mut rng);
        for cut in 0..valid.wire.len() {
            let (result, _) = offer(&mut rng, &valid.wire[..cut], false);
            assert_eq!(result.unwrap_err(), HttpError::Truncated, "cut at {cut}");
            err += 1;
        }
        let (result, taken) = offer(&mut rng, &valid.wire, false);
        assert_eq!(taken, valid.wire.len());
        assert_parses_as(result, &valid);
        ok += 1;
        spent += valid.wire.len() + 1;
    }

    // 3) Single-bit flips of a valid request.
    for _ in 0..CASES / 4 {
        let mut wire = valid_request(&mut rng).wire;
        let bit = rng.uniform_u64(0, wire.len() as u64 * 8) as usize;
        wire[bit / 8] ^= 1 << (bit % 8);
        match offer(&mut rng, &wire, false).0 {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }

    // Sanity: the corpus reached both sides of the reader.
    assert!(ok > 1_000, "only {ok} inputs parsed");
    assert!(err > 1_000, "only {err} inputs were refused");
}

#[test]
fn hostile_lengths_never_reach_the_body() {
    let mut rng = SimRng::seed_from_u64(0x4854_5450_0002);
    for case in 0..CASES / 12 {
        let over = MAX_BODY_BYTES as u64 + 1;
        let (length, too_long) = match case % 8 {
            0 => (over.to_string(), true),
            1 => (rng.uniform_u64(over, u64::MAX).to_string(), true),
            2 => (u64::MAX.to_string(), true),
            // Overflows usize: unparsable, not wrapped into something small.
            3 => (format!("{}{}", u64::MAX, rng.uniform_u64(0, 10)), true),
            4 => (format!("-{}", rng.uniform_u64(0, 100)), true),
            5 => (format!("0x{:x}", rng.uniform_u64(0, 4096)), true),
            6 => (
                format!("{} {}", rng.uniform_u64(0, 9), rng.uniform_u64(0, 9)),
                true,
            ),
            // The cap itself is a legal length: the body is then read
            // (4 MiB a time, so only now and then).
            _ if case % 64 == 7 => (MAX_BODY_BYTES.to_string(), false),
            _ => (format!("{}0", MAX_BODY_BYTES), true),
        };
        let path = token(&mut rng, 8);
        let head = format!("POST /{path} HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n");
        // The peer keeps sending for ever: a reader that believed the
        // header would follow it.
        let (result, taken) = offer(&mut rng, head.as_bytes(), true);
        if too_long {
            assert_eq!(
                result.unwrap_err(),
                HttpError::BadLength,
                "length {length:?}"
            );
            assert!(
                taken <= head.len() + SLACK,
                "read {taken} bytes past a refused length"
            );
        } else {
            assert_eq!(result.expect("the cap is legal").body.len(), MAX_BODY_BYTES);
        }
    }
}

#[test]
fn chunked_bodies_are_not_read_whatever_their_framing() {
    let mut rng = SimRng::seed_from_u64(0x4854_5450_0003);
    for _ in 0..CASES / 6 {
        let path = token(&mut rng, 12);
        let mut wire =
            format!("POST /{path} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").into_bytes();
        let head_len = wire.len();
        for _ in 0..rng.uniform_u64(0, 6) {
            let data_len = rng.uniform_u64(0, 64) as usize;
            let data = random_bytes(&mut rng, data_len);
            let size_line = match rng.uniform_u64(0, 7) {
                0 => format!("{:x}\r\n", data.len()),
                1 => format!("{:x}\r\n", u64::MAX),
                2 => "zz\r\n".to_string(),
                3 => format!("{:x}", data.len()),
                4 => format!("-{:x}\r\n", data.len()),
                5 => format!("{:x};ext=\0\r\n", data.len()),
                _ => "\r\n".to_string(),
            };
            wire.extend_from_slice(size_line.as_bytes());
            wire.extend_from_slice(&data);
            if rng.chance(0.7) {
                wire.extend_from_slice(b"\r\n");
            }
        }
        if rng.chance(0.5) {
            wire.extend_from_slice(b"0\r\n\r\n");
        }
        // Request chunking is a documented non-feature: without a
        // `Content-Length` the body is empty and the chunks stay on the
        // wire, however they are framed.
        let (result, taken) = offer(&mut rng, &wire, false);
        let req = result.expect("a chunked request still has a well-formed head");
        assert_eq!(req.path, format!("/{path}"));
        assert!(req.body.is_empty());
        assert!(taken <= head_len + SLACK);
    }
}

#[test]
fn embedded_nuls_are_data_not_terminators() {
    let mut rng = SimRng::seed_from_u64(0x4854_5450_0004);
    let (mut ok, mut err) = (0u64, 0u64);
    for _ in 0..CASES / 6 {
        let valid = valid_request(&mut rng);
        let mut wire = valid.wire.clone();
        let head_len = wire.len() - valid.body.len();
        // NULs anywhere in the head: overwriting (which may destroy a
        // separator) or inserted (which never does).
        let overwrite = rng.chance(0.5);
        for _ in 0..rng.uniform_u64(1, 5) {
            let at = rng.uniform_u64(0, head_len as u64) as usize;
            if overwrite {
                wire[at] = 0;
            } else {
                wire.insert(at, 0);
            }
        }
        match offer(&mut rng, &wire, false).0 {
            Ok(req) => {
                // A NUL never shortens what follows it: the body is still
                // the declared number of bytes, or the declaration was hit.
                assert!(req.body.len() <= valid.body.len());
                ok += 1;
            }
            Err(_) => err += 1,
        }
    }
    assert!(ok > 100 && err > 100, "{ok} parsed, {err} refused");
}

#[test]
fn header_floods_stop_at_the_head_cap() {
    let mut rng = SimRng::seed_from_u64(0x4854_5450_0005);
    for case in 0..CASES / 40 {
        let mut head = b"GET /flood HTTP/1.1\r\n".to_vec();
        // Aim on either side of the cap; odd cases overshoot.
        let target = if case % 2 == 1 {
            MAX_HEAD_BYTES + 1 + rng.uniform_u64(0, 3 * SLACK as u64) as usize
        } else {
            rng.uniform_u64(1_024, (MAX_HEAD_BYTES - 64) as u64) as usize
        };
        let mut n = 0u32;
        loop {
            let value_len = rng.uniform_u64(0, 24) as usize;
            let line = format!("X-{n}: {}\r\n", token(&mut rng, value_len));
            if head.len() + line.len() + 2 > target && case % 2 == 0 {
                break;
            }
            head.extend_from_slice(line.as_bytes());
            n += 1;
            if head.len() > target {
                break;
            }
        }
        head.extend_from_slice(b"\r\n");
        let (result, taken) = offer(&mut rng, &head, false);
        if case % 2 == 1 {
            assert_eq!(result.unwrap_err(), HttpError::HeadTooLarge);
            assert!(taken <= MAX_HEAD_BYTES + SLACK);
        } else {
            let req = result.expect("a head under the cap parses");
            assert_eq!(req.path, "/flood");
        }
    }
    // The cap is exact and does not depend on how the head is cut into
    // reads (every case draws its own slicing): a head of precisely
    // MAX_HEAD_BYTES parses, one byte more is refused.
    for _ in 0..64 {
        for (excess, fits) in [(0, true), (1, false)] {
            let frame = "GET /edge HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
            let pad = "a".repeat(MAX_HEAD_BYTES + excess - frame);
            let head = format!("GET /edge HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
            let result = offer(&mut rng, head.as_bytes(), false).0;
            match fits {
                true => assert_eq!(result.expect("a head at the cap parses").path, "/edge"),
                false => assert_eq!(result.unwrap_err(), HttpError::HeadTooLarge),
            }
        }
    }
    // One header line that never ends, from a peer that never stops.
    for _ in 0..8 {
        let (result, taken) = offer(&mut rng, b"GET /flood HTTP/1.1\r\nX-Pad: ", true);
        assert_eq!(result.unwrap_err(), HttpError::HeadTooLarge);
        assert!(taken <= MAX_HEAD_BYTES + SLACK);
    }
}
