//! The worker's view of its transport: a bidirectional frame pipe.
//!
//! [`Endpoint`] is everything the serve loop ([`crate::worker`]) knows about
//! the outside world — send a frame, receive a frame. Every worker, OS
//! process or in-process thread, serves a [`StreamEndpoint`] over its end of
//! a socket pair, so the serve loop and its frame I/O are byte-for-byte the
//! same code either way, which is the point: the process boundary is a
//! property of the transport, not of the worker. The trait stays so that
//! wrappers such as [`FaultEndpoint`](crate::FaultEndpoint) can sit between
//! the serve loop and its stream.

use crate::protocol::{read_frame, write_frame};
use std::io::{self, BufReader, BufWriter, Read, Write};

/// One frame: protocol tag plus body bytes.
pub type Frame = (u8, Vec<u8>);

/// A worker's bidirectional frame pipe to its driver.
pub trait Endpoint {
    /// Sends one frame. An error means the driver is unreachable; the worker
    /// should exit.
    fn send(&mut self, tag: u8, body: &[u8]) -> io::Result<()>;

    /// Receives the next frame, blocking. `Ok(None)` is a clean close (the
    /// driver hung up between frames): the worker should exit quietly.
    fn recv(&mut self) -> io::Result<Option<Frame>>;
}

/// Frames over a `Read`/`Write` pair — a worker's end of its socket pair,
/// or any in-memory pair in tests.
pub struct StreamEndpoint<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: BufWriter<W>,
}

impl<R: Read, W: Write> StreamEndpoint<R, W> {
    /// Wraps a raw read/write pair in buffered frame I/O.
    pub fn new(reader: R, writer: W) -> Self {
        Self {
            reader: BufReader::new(reader),
            writer: BufWriter::new(writer),
        }
    }
}

impl<R: Read, W: Write> Endpoint for StreamEndpoint<R, W> {
    fn send(&mut self, tag: u8, body: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, tag, body)
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        read_frame(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tag;

    #[test]
    fn stream_endpoint_round_trips_over_buffers() {
        let mut wire = Vec::new();
        {
            let mut ep = StreamEndpoint::new(io::empty(), &mut wire);
            ep.send(tag::INIT, b"hello").unwrap();
            // BufWriter flushes on write_frame, but be explicit about drop.
        }
        let mut ep = StreamEndpoint::new(wire.as_slice(), io::sink());
        assert_eq!(ep.recv().unwrap(), Some((tag::INIT, b"hello".to_vec())));
        assert_eq!(ep.recv().unwrap(), None);
    }
}
