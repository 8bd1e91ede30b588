//! Offline shim for `crossbeam`: the `channel` subset the p2p substrate
//! uses, backed by `std::sync::mpsc`.

/// Multi-producer channels, mirroring `crossbeam::channel`.
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    /// The sending half; cloneable across threads.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Send a message; fails iff all receivers are gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg).map_err(|mpsc::SendError(m)| SendError(m))
        }
    }

    /// The receiving half.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Block until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Block with a timeout.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }
    }

    /// Sending on a channel with no live receiver.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Receiving on a channel with no live sender.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why a timed receive returned without a message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed first.
        Timeout,
        /// All senders disconnected.
        Disconnected,
    }

    /// Why a non-blocking receive returned without a message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message queued right now.
        Empty,
        /// All senders disconnected.
        Disconnected,
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn send_recv_across_threads() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let h = std::thread::spawn(move || {
            tx2.send(42u32).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(42));
        h.join().unwrap();
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn timeout_fires() {
        let (_tx, rx) = unbounded::<()>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
    }
}
