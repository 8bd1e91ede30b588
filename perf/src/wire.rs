//! The generator's end of the socket. `axml_server::load::Client` keeps
//! its stream private, so it can neither count bytes nor stop the clock
//! at the last byte of a frame; this is the same line-framed client
//! (same `Request::to_json` / `Response::parse`) with both.

use axml_server::protocol::{Request, Response, PROTOCOL_VERSION};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// An op that takes longer than this counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);

/// Bytes and frames that crossed one connection, both directions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounts {
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub frames_out: u64,
    pub frames_in: u64,
}

impl std::ops::AddAssign for WireCounts {
    fn add_assign(&mut self, o: WireCounts) {
        self.bytes_out += o.bytes_out;
        self.bytes_in += o.bytes_in;
        self.frames_out += o.frames_out;
        self.frames_in += o.frames_in;
    }
}

impl std::ops::Sub for WireCounts {
    type Output = WireCounts;
    fn sub(self, o: WireCounts) -> WireCounts {
        WireCounts {
            bytes_out: self.bytes_out - o.bytes_out,
            bytes_in: self.bytes_in - o.bytes_in,
            frames_out: self.frames_out - o.frames_out,
            frames_in: self.frames_in - o.frames_in,
        }
    }
}

/// Counts what `read` returns, under the `BufReader`, so the tally is
/// bytes taken off the socket, not bytes handed to the parser.
struct CountingRead {
    stream: TcpStream,
    bytes: u64,
}

impl Read for CountingRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

pub struct Client {
    out: TcpStream,
    reader: BufReader<CountingRead>,
    line: String,
    sent: WireCounts,
}

impl Client {
    /// Connect and say `hello`.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        out.set_read_timeout(Some(OP_TIMEOUT))?;
        let reader = BufReader::new(CountingRead {
            stream: out.try_clone()?,
            bytes: 0,
        });
        let mut c = Client {
            out,
            reader,
            line: String::new(),
            sent: WireCounts::default(),
        };
        let hello = Request::Hello {
            id: 0,
            version: PROTOCOL_VERSION,
            client: "axml-perf".to_string(),
        };
        match c.call(&hello)? {
            Response::HelloOk { .. } => Ok(c),
            other => Err(unexpected(&other)),
        }
    }

    /// Write one frame as [`encode`] made it, newline included: one
    /// buffer, one write, so the generator adds no second segment per
    /// frame to what it measures.
    pub fn send_line(&mut self, frame: &str) -> io::Result<()> {
        debug_assert!(frame.ends_with('\n'));
        self.out.write_all(frame.as_bytes())?;
        self.sent.bytes_out += frame.len() as u64;
        self.sent.frames_out += 1;
        Ok(())
    }

    /// Read one frame up to its newline; the text stays borrowed from
    /// the client so the caller can stop its clock before parsing.
    pub fn recv_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.sent.frames_in += 1;
        Ok(&self.line)
    }

    pub fn recv(&mut self) -> io::Result<Response> {
        parse(self.recv_line()?)
    }

    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send_line(&encode(req))?;
        self.recv()
    }

    /// Send `req`, wait for the whole reply line, and return the reply
    /// with the send→last-byte time. Encoding the request and parsing
    /// the reply are the generator's own work and are outside it.
    pub fn timed_call(&mut self, req: &Request) -> io::Result<(Response, Duration)> {
        let frame = encode(req);
        let t0 = Instant::now();
        self.send_line(&frame)?;
        let line = self.recv_line()?;
        let dt = t0.elapsed();
        Ok((parse(line)?, dt))
    }

    pub fn counts(&self) -> WireCounts {
        WireCounts {
            bytes_in: self.reader.get_ref().bytes,
            ..self.sent
        }
    }
}

/// One request as it goes on the wire: its JSON and a newline.
pub fn encode(req: &Request) -> String {
    let mut frame = req.to_json();
    frame.push('\n');
    frame
}

pub fn parse(line: &str) -> io::Result<Response> {
    Response::parse(line).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {}", e.code, e.message),
        )
    })
}

pub fn unexpected(resp: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected frame {}: {}", resp.kind(), resp.to_json()),
    )
}
