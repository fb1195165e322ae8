//! [`Ticket`]: the per-request receipt of the serving layer. The
//! dispatcher (or, on a cache hit, admission itself) sends the
//! request's [`LaneResult`] down the ticket's channel together with the
//! completion instant, so latency measurement never depends on when the
//! caller got around to draining the ticket.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use super::admission::{LaneResult, ServeError};

/// The receipt for one submitted request: redeem it with
/// [`Ticket::wait`] for the request's result.
#[derive(Debug)]
pub struct Ticket<V> {
    rx: mpsc::Receiver<(Instant, LaneResult<V>)>,
}

impl<V> Ticket<V> {
    /// Wraps the receiving half of a request's reply channel.
    pub(crate) fn new(rx: mpsc::Receiver<(Instant, LaneResult<V>)>) -> Self {
        Ticket { rx }
    }

    /// Blocks until the request's result arrives.
    pub fn wait(self) -> LaneResult<V> {
        match self.rx.recv() {
            Ok((_, result)) => result,
            Err(_) => Err(ServeError::Disconnected),
        }
    }

    /// Like [`Ticket::wait_deadline`], but also returns the instant the
    /// dispatcher finished the request — so a caller measuring latency
    /// sees completion time, not the (possibly much later) moment it
    /// got around to draining the ticket.
    pub fn wait_deadline_timed(&self, deadline: Duration) -> (LaneResult<V>, Instant) {
        match self.rx.recv_timeout(deadline) {
            Ok((completed, result)) => (result, completed),
            Err(mpsc::RecvTimeoutError::Timeout) => (
                Err(ServeError::Timeout { waited: deadline }),
                Instant::now(),
            ),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                (Err(ServeError::Disconnected), Instant::now())
            }
        }
    }

    /// Blocks until the request's result arrives or `deadline` elapses,
    /// whichever is first — so a caller can never hang forever on a
    /// wedged dispatcher. On [`ServeError::Timeout`] the request is
    /// still in flight and the ticket (taken by reference) can be
    /// waited on again.
    pub fn wait_deadline(&self, deadline: Duration) -> LaneResult<V> {
        self.wait_deadline_timed(deadline).0
    }
}

#[cfg(test)]
mod tests {
    use super::super::pool::tests_support::{marginal, two_model_pool};
    use super::super::{Priority, ServeConfig, ServeError, ServeResponse, Server};
    use std::time::Duration;

    #[test]
    fn wait_deadline_times_out_and_can_retry() {
        let pool = two_model_pool();
        // A huge max_wait and an unfillable batch: nothing dispatches
        // until shutdown, so the first deadline must expire.
        let server = Server::start(
            pool,
            ServeConfig {
                max_batch: 1024,
                max_wait: Duration::from_secs(3600),
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let ticket = server
            .submit(marginal("asia", 8, Priority::Interactive))
            .unwrap();
        match ticket.wait_deadline(Duration::from_millis(10)) {
            Err(ServeError::Timeout { waited }) => {
                assert_eq!(waited, Duration::from_millis(10));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The request is still live: after the flush, the same ticket
        // (waited by reference) resolves normally.
        server.shutdown();
        assert!(matches!(
            ticket.wait_deadline(Duration::from_secs(5)),
            Ok(ServeResponse::Marginal { .. })
        ));
    }
}
