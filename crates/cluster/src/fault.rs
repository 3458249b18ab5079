//! Deterministic fault injection for the frame protocol — the one way to
//! break a worker, and it works from outside: the library's run path holds
//! no fault hook.
//!
//! [`FaultEndpoint`] wraps a worker's [`Endpoint`], a saboteur between the
//! serve loop and its stream. It truncates bodies, cuts writes short, delays
//! and duplicates frames and drops the connection, each at an exact frame
//! index, from a schedule that is pure data. The same schedule always
//! injects the same faults, so every driver error path is pinned by a
//! repeatable test instead of kill timing.
//!
//! Frames are counted per direction ([`Direction::Outbound`] =
//! worker→driver, inbound the reverse), and when a direction's counter hits
//! a scheduled index the [`FaultAction`] fires. Inbound frame 0 is `Init`
//! and inbound frame `s + 1` is the `Step` of superstep `s`, so a worker
//! that dies at superstep `s` is a [`FaultAction::Disconnect`] at inbound
//! frame `s + 1`, and one that stops answering there is a
//! [`FaultAction::Delay`] at that frame. Outbound frame 0 is `InitOk`,
//! which carries the worker's edge-group tables: a
//! [`FaultAction::TruncateBody`] there tears a table the driver must
//! reject, and inbound frame 1, superstep 0's `Step`, relays its peers'
//! tables to it. Outbound frame `s + 1` is the `StepDone` of superstep `s`. Schedules are built with
//! [`FaultSchedule::at`]; a group of workers behind them is built with
//! [`Connection::spawn_inproc_faulty`](crate::Connection::spawn_inproc_faulty)
//! and run with [`drive_on`](crate::drive_on).

use crate::endpoint::{Endpoint, Frame};
use std::collections::VecDeque;
use std::io;

/// Which way a counted frame is travelling, from the worker's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Driver → worker frames (what the worker receives).
    Inbound,
    /// Worker → driver frames (what the worker sends).
    Outbound,
}

/// What happens to the frame at a scheduled index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the frame with its body cut to `keep` bytes — a well-framed
    /// but semantically truncated payload, surfacing as a
    /// [`WireError::Truncated`](crate::WireError::Truncated) decode failure
    /// at the receiver.
    TruncateBody {
        /// Body bytes to keep.
        keep: usize,
    },
    /// Deliver the body cut to `keep` bytes, then kill the connection — a
    /// peer that died mid-write.
    PartialWrite {
        /// Body bytes that make it out before the cut.
        keep: usize,
    },
    /// Hold the frame back until `frames` more frames pass in the same
    /// direction (if the episode ends first, the frame is simply lost and
    /// the peer's read timeout fires).
    Delay {
        /// Frames that must pass before release.
        frames: usize,
    },
    /// Deliver the frame twice.
    Duplicate,
    /// Drop the connection instead of transferring this frame.
    Disconnect,
}

/// A deterministic list of `(direction, frame index, action)` injections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    faults: Vec<(Direction, u64, FaultAction)>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` against the `index`-th frame in `direction`
    /// (0-based, counted per direction).
    pub fn at(mut self, direction: Direction, index: u64, action: FaultAction) -> Self {
        self.faults.push((direction, index, action));
        self
    }

    fn action_at(&self, direction: Direction, index: u64) -> Option<FaultAction> {
        self.faults
            .iter()
            .find(|(d, i, _)| *d == direction && *i == index)
            .map(|(_, _, a)| *a)
    }
}

/// An [`Endpoint`] with a deterministic saboteur in the middle.
///
/// Wraps the worker's real endpoint; the serve loop neither knows nor
/// cares. After a [`FaultAction::Disconnect`] or
/// [`FaultAction::PartialWrite`] the wrapped endpoint is dropped — every
/// later operation behaves like a dead peer (send errors, recv reports a
/// clean close), exactly as a real torn connection would.
pub struct FaultEndpoint<E: Endpoint> {
    inner: Option<E>,
    schedule: FaultSchedule,
    sent: u64,
    received: u64,
    /// Outbound frames held by a `Delay`, keyed by the send-counter value
    /// at which they release.
    delayed_out: VecDeque<(u64, Frame)>,
    /// Inbound frames owed to the worker before reading from the wire
    /// again (duplicates and released delays).
    pending_in: VecDeque<Frame>,
    /// Inbound frames held by a `Delay`, keyed by the recv-counter value
    /// at which they release.
    delayed_in: VecDeque<(u64, Frame)>,
}

impl<E: Endpoint> FaultEndpoint<E> {
    /// Wraps `inner`, injecting `schedule`.
    pub fn new(inner: E, schedule: FaultSchedule) -> Self {
        Self {
            inner: Some(inner),
            schedule,
            sent: 0,
            received: 0,
            delayed_out: VecDeque::new(),
            pending_in: VecDeque::new(),
            delayed_in: VecDeque::new(),
        }
    }

    fn dead() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "injected disconnect")
    }

    /// Releases delayed outbound frames that are due before the frame at
    /// `index` goes out.
    fn flush_due_out(&mut self, index: u64) -> io::Result<()> {
        while let Some((due, _)) = self.delayed_out.front() {
            if *due > index {
                break;
            }
            let (_, (tag, body)) = self.delayed_out.pop_front().expect("front exists");
            let inner = self.inner.as_mut().ok_or_else(Self::dead)?;
            inner.send(tag, &body)?;
        }
        Ok(())
    }
}

impl<E: Endpoint> Endpoint for FaultEndpoint<E> {
    fn send(&mut self, tag: u8, body: &[u8]) -> io::Result<()> {
        let index = self.sent;
        self.sent += 1;
        self.flush_due_out(index)?;
        let action = self.schedule.action_at(Direction::Outbound, index);
        let inner = self.inner.as_mut().ok_or_else(Self::dead)?;
        match action {
            None => inner.send(tag, body),
            Some(FaultAction::TruncateBody { keep }) => {
                inner.send(tag, &body[..keep.min(body.len())])
            }
            Some(FaultAction::PartialWrite { keep }) => {
                let _ = inner.send(tag, &body[..keep.min(body.len())]);
                self.inner = None;
                Err(Self::dead())
            }
            Some(FaultAction::Delay { frames }) => {
                self.delayed_out
                    .push_back((index + 1 + frames as u64, (tag, body.to_vec())));
                Ok(())
            }
            Some(FaultAction::Duplicate) => {
                inner.send(tag, body)?;
                inner.send(tag, body)
            }
            Some(FaultAction::Disconnect) => {
                self.inner = None;
                Err(Self::dead())
            }
        }
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        // Frames owed from duplicates / released delays go first.
        if let Some(frame) = self.pending_in.pop_front() {
            return Ok(Some(frame));
        }
        loop {
            if let Some((due, _)) = self.delayed_in.front() {
                if *due <= self.received {
                    let (_, frame) = self.delayed_in.pop_front().expect("front exists");
                    return Ok(Some(frame));
                }
            }
            let Some(inner) = self.inner.as_mut() else {
                // Torn connection: the peer is gone, report a clean close so
                // the worker exits the way it does on a real hangup.
                return Ok(None);
            };
            let Some((tag, body)) = inner.recv()? else {
                return Ok(None);
            };
            let index = self.received;
            self.received += 1;
            match self.schedule.action_at(Direction::Inbound, index) {
                None => return Ok(Some((tag, body))),
                Some(FaultAction::TruncateBody { keep }) => {
                    let mut body = body;
                    body.truncate(keep);
                    return Ok(Some((tag, body)));
                }
                Some(FaultAction::PartialWrite { keep }) => {
                    let mut body = body;
                    body.truncate(keep);
                    self.inner = None;
                    return Ok(Some((tag, body)));
                }
                Some(FaultAction::Delay { frames }) => {
                    self.delayed_in
                        .push_back((index + 1 + frames as u64, (tag, body)));
                    // Loop: read the next frame in its place.
                }
                Some(FaultAction::Duplicate) => {
                    self.pending_in.push_back((tag, body.clone()));
                    return Ok(Some((tag, body)));
                }
                Some(FaultAction::Disconnect) => {
                    self.inner = None;
                    return Err(Self::dead());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::StreamEndpoint;
    use crate::protocol::{read_frame, tag, write_frame};
    use std::os::unix::net::UnixStream;

    /// The driver's end of a socket pair and a worker endpoint on the other.
    fn pair() -> (UnixStream, StreamEndpoint<UnixStream, UnixStream>) {
        let (driver, worker) = UnixStream::pair().unwrap();
        let reader = worker.try_clone().unwrap();
        (driver, StreamEndpoint::new(reader, worker))
    }

    fn recv_frame(driver: &mut UnixStream) -> Option<Frame> {
        read_frame(driver).unwrap()
    }

    #[test]
    fn truncate_cuts_the_body_and_keeps_the_stream() {
        let (mut driver, worker) = pair();
        let schedule = FaultSchedule::new().at(
            Direction::Outbound,
            0,
            FaultAction::TruncateBody { keep: 2 },
        );
        let mut ep = FaultEndpoint::new(worker, schedule);
        ep.send(tag::STEP_DONE, &[1, 2, 3, 4]).unwrap();
        ep.send(tag::STEP_DONE, &[9, 9]).unwrap();
        assert_eq!(recv_frame(&mut driver), Some((tag::STEP_DONE, vec![1, 2])));
        assert_eq!(recv_frame(&mut driver), Some((tag::STEP_DONE, vec![9, 9])));
    }

    #[test]
    fn disconnect_kills_both_directions() {
        let (mut driver, worker) = pair();
        let schedule = FaultSchedule::new().at(Direction::Outbound, 1, FaultAction::Disconnect);
        let mut ep = FaultEndpoint::new(worker, schedule);
        ep.send(tag::STEP_DONE, &[1]).unwrap();
        assert!(ep.send(tag::STEP_DONE, &[2]).is_err());
        assert!(ep.send(tag::STEP_DONE, &[3]).is_err(), "stays dead");
        assert_eq!(ep.recv().unwrap(), None, "reads like a hangup");
        // The driver got the first frame, then the stream ended.
        assert_eq!(recv_frame(&mut driver), Some((tag::STEP_DONE, vec![1])));
        assert_eq!(recv_frame(&mut driver), None);
    }

    #[test]
    fn delay_reorders_outbound_frames() {
        let (mut driver, worker) = pair();
        let schedule =
            FaultSchedule::new().at(Direction::Outbound, 0, FaultAction::Delay { frames: 2 });
        let mut ep = FaultEndpoint::new(worker, schedule);
        ep.send(0x10, &[0]).unwrap(); // delayed until after frame 2
        ep.send(0x11, &[1]).unwrap();
        ep.send(0x12, &[2]).unwrap();
        ep.send(0x13, &[3]).unwrap();
        let order: Vec<u8> = (0..4).map(|_| recv_frame(&mut driver).unwrap().0).collect();
        assert_eq!(order, vec![0x11, 0x12, 0x10, 0x13]);
    }

    #[test]
    fn duplicate_delivers_inbound_frames_twice() {
        let (mut driver, worker) = pair();
        let schedule = FaultSchedule::new().at(Direction::Inbound, 0, FaultAction::Duplicate);
        let mut ep = FaultEndpoint::new(worker, schedule);
        write_frame(&mut driver, tag::STEP, &[7]).unwrap();
        write_frame(&mut driver, tag::FINISH, &[]).unwrap();
        assert_eq!(ep.recv().unwrap(), Some((tag::STEP, vec![7])));
        assert_eq!(ep.recv().unwrap(), Some((tag::STEP, vec![7])));
        assert_eq!(ep.recv().unwrap(), Some((tag::FINISH, vec![])));
    }

    #[test]
    fn inbound_delay_holds_a_frame_back() {
        let (mut driver, worker) = pair();
        let schedule =
            FaultSchedule::new().at(Direction::Inbound, 0, FaultAction::Delay { frames: 2 });
        let mut ep = FaultEndpoint::new(worker, schedule);
        for i in 0..3u8 {
            write_frame(&mut driver, 0x20 + i, &[]).unwrap();
        }
        let order: Vec<u8> = (0..3).map(|_| ep.recv().unwrap().unwrap().0).collect();
        assert_eq!(order, vec![0x21, 0x22, 0x20]);
    }
}
