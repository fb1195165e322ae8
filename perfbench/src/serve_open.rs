//! `serve-open`: an open-loop Poisson stream at a fixed rate into
//! `Server::submit`, with the default `ServeConfig` (cache off).
//!
//! One thread submits each request at its due time; a second thread
//! waits the tickets. Latency runs from the due time to the completion
//! instant `Ticket::wait_deadline_timed` reports, so a stalled
//! generator counts against the server's latency instead of hiding it.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use problp_engine::{LaneResult, ServeConfig, ServeError, ServeRequest, Ticket};

use crate::gen::Gen;
use crate::serving::{self, Hosted};
use crate::stats::Dist;
use crate::trace::Tracer;
use crate::{us, with_setups, Args, Outcome, Phase};

/// Offered load in requests per second.
pub const RATE_PER_S: f64 = 2000.0;
/// How long the waiter waits for one ticket before counting a timeout.
const TICKET_DEADLINE: Duration = Duration::from_secs(5);
/// The generator sleeps until this long before a due time and spins
/// the rest, so its own timer slack does not add to the latency.
const SPIN: Duration = Duration::from_micros(200);
/// Lead time between generating the schedule and the first due time.
const LEAD: Duration = Duration::from_millis(20);

/// One scheduled request.
struct Planned {
    /// Offset of the due time from the phase start.
    due: Duration,
    req: ServeRequest,
}

/// The seeded schedule: Poisson arrivals at [`RATE_PER_S`] over
/// `window`, each to a uniformly drawn tenant with a uniformly drawn
/// query kind.
fn schedule(hosted: &Hosted, seed: u64, stream: u64, window: Duration) -> Vec<Planned> {
    let mut gen = Gen::new(seed, stream);
    let mean_us = 1e6 / RATE_PER_S;
    let end_us = window.as_secs_f64() * 1e6;
    let mut t_us = 0.0;
    let mut plan = Vec::new();
    loop {
        t_us += gen.exp(mean_us);
        if t_us > end_us {
            return plan;
        }
        let tenant = &hosted.tenants[gen.below(hosted.tenants.len())];
        let (query, evidence) = gen.query(&tenant.net);
        plan.push(Planned {
            due: Duration::from_secs_f64(t_us / 1e6),
            req: serving::request(tenant.name, query, evidence),
        });
    }
}

/// What the generator hands the waiter.
struct Sent {
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    ticket: Result<Ticket<f64>, ServeError>,
}

/// One request's timeline and result.
struct Done {
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    wait_start: Instant,
    completed: Instant,
    returned: Instant,
    result: LaneResult<f64>,
}

fn drive(hosted: &Hosted, plan: &[Planned], tracer: Option<&Tracer>) -> Vec<Done> {
    let server = &hosted.server;
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + LEAD;
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut done = Vec::with_capacity(plan.len());
            for sent in rx {
                let wait_start = Instant::now();
                let (result, completed) = match sent.ticket {
                    Ok(ticket) => ticket.wait_deadline_timed(TICKET_DEADLINE),
                    Err(e) => (Err(e), sent.submitted),
                };
                let returned = Instant::now();
                if let Some(tracer) = tracer {
                    tracer.record(
                        sent.index as u64,
                        "request",
                        sent.due,
                        returned,
                        &[
                            ("loadgen", sent.due, sent.sent),
                            ("admission", sent.sent, sent.submitted),
                            ("queue", sent.submitted, completed),
                            ("ticket", completed, returned),
                        ],
                    );
                }
                done.push(Done {
                    index: sent.index,
                    due: sent.due,
                    sent: sent.sent,
                    submitted: sent.submitted,
                    wait_start,
                    completed,
                    returned,
                    result,
                });
            }
            done
        });
        for (index, p) in plan.iter().enumerate() {
            let req = p.req.clone();
            let due = start + p.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                if wait > SPIN {
                    std::thread::sleep(wait - SPIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
            }
            let sent = Instant::now();
            let ticket = server.submit(req);
            let submitted = Instant::now();
            let msg = Sent {
                index,
                due,
                sent,
                submitted,
                ticket,
            };
            if tx.send(msg).is_err() {
                break;
            }
        }
        drop(tx);
        waiter.join().expect("the waiter thread does not panic")
    })
}

fn measure(hosted: &Hosted, args: &Args, stream: u64, tracer: Option<&Tracer>) -> Phase {
    let plan = schedule(hosted, args.seed, stream, crate::phase_len(args));
    let before = serving::counters(&hosted.server);
    let done = drive(hosted, &plan, tracer);
    let after = serving::counters(&hosted.server);

    // Checked outside the timed section: every answer against the
    // uncached single-request reference path.
    let failed = done
        .iter()
        .filter(|d| !serving::matches_reference(&hosted.server, &plan[d.index].req, &d.result))
        .count() as u64;
    let first_due = done.iter().map(|d| d.due).min();
    let last_done = done.iter().map(|d| d.completed).max();
    let busy_s = match (first_due, last_done) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    let dist = |f: &dyn Fn(&Done) -> f64| Dist::new(done.iter().map(f).collect());
    let late = dist(&|d| us(d.due, d.sent));
    let submit = dist(&|d| us(d.sent, d.submitted));
    let sojourn = dist(&|d| us(d.submitted, d.completed));
    let wake = dist(&|d| us(d.completed.max(d.wait_start), d.returned));
    let admitted = after.admitted - before.admitted;
    let dispatches = after.dispatches - before.dispatches;
    let layers: BTreeMap<String, f64> = [
        ("loadgen.late_us.p50", late.p(50.0)),
        ("loadgen.late_p99_us", late.p(99.0)),
        ("admission.submit_us.p50", submit.p(50.0)),
        ("admission.submit_us.p99", submit.p(99.0)),
        ("queue.sojourn_us.p50", sojourn.p(50.0)),
        ("queue.sojourn_us.p99", sojourn.p(99.0)),
        (
            "queue.lanes_per_dispatch",
            admitted as f64 / dispatches.max(1) as f64,
        ),
        ("queue.depth_high_water", after.depth_high_water as f64),
        ("ticket.wake_us.p50", wake.p(50.0)),
        ("ticket.wake_us.p99", wake.p(99.0)),
        (
            "engine.evaluate_us.mean",
            serving::evaluate_mean_us(&before, &after),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    Phase {
        latency_us: done.iter().map(|d| us(d.due, d.completed)).collect(),
        work: (done.len() as u64 - failed) as f64,
        busy_s,
        attempted: plan.len() as u64,
        failed: failed + (plan.len() - done.len()) as u64,
        consistent: true,
        layers,
    }
}

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Outcome {
    let (setup_s, (untraced, traced, setup_layers)) = with_setups(
        || serving::host(ServeConfig::default(), tracer),
        |hosted| {
            let untraced = measure(hosted, args, 0, None);
            let traced = tracer.map(|t| measure(hosted, args, 1, Some(t)));
            (untraced, traced, hosted.setup_layers())
        },
    );
    Outcome {
        setup_s,
        throughput_name: "throughput_rps",
        untraced,
        traced,
        setup_layers,
    }
}
