//! A minimal blocking HTTP/1.1 client for the daemon's
//! `Connection: close` responses, stamping the phases of each request.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// A response read to end of stream.
#[derive(Debug)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Body bytes after the head.
    pub body: Vec<u8>,
}

/// Clock readings at the client-visible phase boundaries of a request.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    /// Before `connect`.
    pub start: Instant,
    /// After the connection is established.
    pub connected: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the server closed the connection.
    pub done: Instant,
}

/// Encodes one request. `traceparent` adds the W3C header.
pub fn encode(method: &str, path: &str, body: &str, traceparent: Option<&str>) -> Vec<u8> {
    let trace = traceparent
        .map(|tp| format!("traceparent: {tp}\r\n"))
        .unwrap_or_default();
    let content = if body.is_empty() {
        String::new()
    } else {
        format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        )
    };
    format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n{content}{trace}Connection: close\r\n\r\n{body}")
        .into_bytes()
}

/// Sends an encoded request on a fresh connection and reads the whole
/// response.
///
/// # Errors
/// Connection, I/O, and malformed-status-line failures.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> io::Result<(Response, Stamps)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.write_all(request)?;
    let mut raw = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    let first_byte = Instant::now();
    raw.extend_from_slice(&chunk[..n]);
    if n > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let done = Instant::now();
    let response = parse(&raw)?;
    Ok((
        response,
        Stamps {
            start,
            connected,
            first_byte,
            done,
        },
    ))
}

/// `GET path` on a fresh connection.
///
/// # Errors
/// As [`exchange`].
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    exchange(addr, &encode("GET", path, "", None)).map(|(r, _)| r)
}

fn parse(raw: &[u8]) -> io::Result<Response> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no complete head"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok(Response {
        status,
        body: raw[head_end + 4..].to_vec(),
    })
}
