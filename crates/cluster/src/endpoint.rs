//! The worker's view of its transport: a bidirectional frame pipe.
//!
//! [`Endpoint`] is everything the serve loop ([`crate::worker`]) knows about
//! the outside world — send a frame, receive a frame. A standalone worker
//! process serves a [`StreamEndpoint`] (frames over the two halves of its
//! socket stream); an in-process worker thread
//! serves a [`ChannelEndpoint`] (frames over a pair of mpsc channels). The
//! serve loop is byte-for-byte the same code either way, which is the point:
//! the process boundary is a property of the transport, not of the worker.

use crate::protocol::{read_frame, write_frame};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::sync::mpsc::{Receiver, Sender};

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

/// Frames over a `Read`/`Write` pair — the socket stream of the
/// `cluster_worker` binary, or any in-memory pair in tests.
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

/// Frames over an mpsc channel pair — the in-process transport. A dropped
/// peer reads as a clean close on `recv` and a broken pipe on `send`,
/// mirroring how a dead process behaves on a real pipe.
pub struct ChannelEndpoint {
    /// Frames from the driver.
    pub rx: Receiver<Frame>,
    /// Frames to the driver.
    pub tx: Sender<Frame>,
}

impl Endpoint for ChannelEndpoint {
    fn send(&mut self, tag: u8, body: &[u8]) -> io::Result<()> {
        self.tx
            .send((tag, body.to_vec()))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "driver hung up"))
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        Ok(self.rx.recv().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tag;
    use std::sync::mpsc;

    #[test]
    fn channel_endpoint_round_trips_frames() {
        let (to_worker, from_driver) = mpsc::channel();
        let (to_driver, from_worker) = mpsc::channel();
        let mut ep = ChannelEndpoint {
            rx: from_driver,
            tx: to_driver,
        };
        to_worker.send((tag::STEP, vec![1, 2, 3])).unwrap();
        assert_eq!(ep.recv().unwrap(), Some((tag::STEP, vec![1, 2, 3])));
        ep.send(tag::STEP_DONE, &[9]).unwrap();
        assert_eq!(from_worker.recv().unwrap(), (tag::STEP_DONE, vec![9]));
    }

    #[test]
    fn channel_endpoint_reports_hangup_cleanly() {
        let (to_driver, from_worker) = mpsc::channel();
        let (_unused_tx, from_driver) = mpsc::channel::<Frame>();
        drop(from_worker);
        let mut ep = ChannelEndpoint {
            rx: from_driver,
            tx: to_driver,
        };
        assert!(ep.send(tag::STEP_DONE, &[]).is_err());
        drop(_unused_tx);
        assert_eq!(ep.recv().unwrap(), None);
    }

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
