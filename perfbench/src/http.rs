//! A minimal HTTP/1.1 keep-alive client for the serve_jobs load
//! generator. It sends each request with one write on a TCP_NODELAY
//! socket, as curl does, and leaves ACK timing to the kernel's defaults,
//! so a server-side Nagle stall is neither caused nor hidden here. It
//! reconnects when the server closes the connection (after its
//! per-connection request cap).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connect, read and write timeout; a longer stall fails the request.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Upper bound on a response head or body this client accepts.
const MAX_RESPONSE: usize = 16 << 20;

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// The first header called `name` (case-insensitive).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    fn keeps_alive(&self) -> bool {
        !self
            .header("Connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// One client: at most one open connection at a time.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Bytes read past the previous response.
    buf: Vec<u8>,
    /// Milliseconds each (re)connection took, from `connect` until its
    /// `/healthz` probe answered 200.
    pub connect_ms: Vec<f64>,
}

impl Client {
    #[must_use]
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            buf: Vec::new(),
            connect_ms: Vec::new(),
        }
    }

    /// Send one request (connecting first if needed) and read its
    /// response. An I/O error or a `Connection: close` answer drops the
    /// connection; the next request reconnects.
    ///
    /// # Errors
    /// Connect, write, read or framing failures, and timeouts.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        if self.conn.is_none() {
            self.connect()?;
        }
        self.exchange(method, target, body)
    }

    fn connect(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        self.conn = Some(stream);
        self.buf.clear();
        let probe = self.exchange("GET", "/healthz", None)?;
        if probe.status != 200 {
            self.conn = None;
            return Err(io::Error::other(format!(
                "/healthz answered {}",
                probe.status
            )));
        }
        self.connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }

    fn exchange(&mut self, method: &str, target: &str, body: Option<&str>) -> io::Result<Response> {
        let result = self.send_and_read(method, target, body);
        if !result.as_ref().is_ok_and(Response::keeps_alive) {
            self.conn = None;
        }
        result
    }

    fn send_and_read(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        let stream = self
            .conn
            .as_mut()
            .ok_or_else(|| io::Error::other("no connection"))?;
        let mut req = format!("{method} {target} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        if let Some(body) = body {
            req.push_str("Content-Type: application/json\r\n");
            req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        } else {
            req.push_str("\r\n");
        }
        stream.write_all(req.as_bytes())?;

        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            if self.buf.len() > MAX_RESPONSE {
                return Err(io::Error::other("response head too large"));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line in {head:?}")))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        let len: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("Content-Length"))
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| io::Error::other("response without Content-Length"))?;
        if len > MAX_RESPONSE {
            return Err(io::Error::other("response body too large"));
        }
        while self.buf.len() < head_end + len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}
